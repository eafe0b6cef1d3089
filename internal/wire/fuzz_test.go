package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/topo"
)

// FuzzDecode throws arbitrary bytes at the codec, once as a frame body
// and once as a raw stream. Decode must never panic, every body it
// accepts must re-encode to the identical bytes, and ReadMessage must
// reject a length prefix above MaxFrameSize without reading the body.
func FuzzDecode(f *testing.F) {
	for _, m := range []*Message{
		sampleMessage(),
		{TransID: 1, Type: TypeCommit, Path: []topo.NodeID{0, 1}, Commit: 5},
		{TransID: 2, Type: TypeReverseAck, Path: []topo.NodeID{1, 0}, Pos: 1},
		{Type: TypeProbeAck, Pos: 7}, // empty path: Pos is not range-checked
	} {
		frame, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:]) // a body
		f.Add(frame)     // a stream
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrameSize+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := Decode(data); err == nil {
			frame, err := Encode(m)
			if err != nil {
				t.Fatalf("re-encoding accepted message %+v: %v", m, err)
			}
			if !bytes.Equal(frame[4:], data) {
				t.Fatalf("re-encoding changed the body:\n got %x\nwant %x", frame[4:], data)
			}
		}
		if len(data) >= 4 && binary.BigEndian.Uint32(data) > MaxFrameSize {
			r := bytes.NewReader(data)
			if _, err := ReadMessage(r); !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("length prefix %d: err = %v, want ErrFrameTooLarge", binary.BigEndian.Uint32(data), err)
			}
			if read := len(data) - r.Len(); read != 4 {
				t.Fatalf("oversized frame: read %d bytes, want only the 4-byte prefix", read)
			}
		}
	})
}
