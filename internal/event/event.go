// Package event is the deterministic discrete-event core of the
// dynamic network simulator: a virtual clock, a priority queue of
// timestamped events, and an append-only log of everything that was
// applied.
//
// # Time model
//
// Time is virtual, measured in float64 seconds from the start of a run.
// Nothing in this package reads wall-clock time: every timestamp is
// computed by the caller (typically from a seeded arrival process), so
// a run's event sequence is a pure function of its inputs. Events at
// the same virtual instant are ordered by their scheduling sequence
// number — the queue stamps each pushed event with a monotonically
// increasing Seq — giving the engine a single total order. Two runs
// that schedule the same events therefore pop them identically.
//
// # Determinism
//
// The queue is a plain binary heap with the (Time, Seq) total order;
// it holds no maps and consults no global state, so iteration order
// can never leak in. The Log records every applied event and exposes a
// fingerprint (FNV-1a over the rendered entries) that tests compare
// across runs to pin determinism.
package event

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/topo"
)

// Kind enumerates what can happen in a dynamic-network run.
type Kind uint8

const (
	// PaymentArrival is a payment entering the system (first attempt or
	// a scheduled retry).
	PaymentArrival Kind = iota
	// PaymentComplete is a payment leaving service (delivered or not).
	PaymentComplete
	// ChannelOpen activates a channel: a reopened channel or a latent
	// one funded for the first time.
	ChannelOpen
	// ChannelClose deactivates a channel; its funds freeze in place.
	ChannelClose
	// Rebalance evens a channel's two directional balances (an offchain
	// rebalancing operation such as a circular self-payment).
	Rebalance
	// DemandShift rescales the workload's payment amounts from this
	// instant on.
	DemandShift
	// FeeShift rescales a channel's fee schedules (both directions) by
	// a factor — a node repricing its channels mid-run (a fee war).
	FeeShift
	// ThresholdUpdate is reserved and no longer emitted: threshold
	// re-calibrations are ControlUpdate decisions. The kind keeps its
	// number and name because Log.Fingerprint folds the kind code into
	// every entry — renumbering the kinds after it would change every
	// fingerprint with expiries or controllers — and per-kind counters
	// keep reporting it as zero. Churn schedules may not contain it.
	ThresholdUpdate
	// DeadlineExpiry is a held payment hitting its HTLC-style expiry
	// deadline before its commit could settle: the hold is torn down,
	// funds are released, and the attempt counts as failed. Emitted by
	// the engine itself, never by churn schedules.
	DeadlineExpiry
	// ControlUpdate records one applied control-plane decision (or the
	// cadence tick that triggers the observe/decide pass): a runtime
	// knob — threshold, per-sender threshold, probe width, retry
	// backoff — moved to a new value. The applied decisions are stamped
	// with their effective values before recording, so the fingerprint
	// covers the whole adaptive trajectory. Emitted by the engine
	// itself, never by churn schedules.
	ControlUpdate

	// NumKinds is the number of event kinds (for per-kind counters).
	NumKinds = int(ControlUpdate) + 1
)

// String names the kind for logs and tables.
func (k Kind) String() string {
	switch k {
	case PaymentArrival:
		return "arrival"
	case PaymentComplete:
		return "complete"
	case ChannelOpen:
		return "open"
	case ChannelClose:
		return "close"
	case Rebalance:
		return "rebalance"
	case DemandShift:
		return "demand-shift"
	case FeeShift:
		return "fee-shift"
	case ThresholdUpdate:
		return "threshold-update"
	case DeadlineExpiry:
		return "deadline-expiry"
	case ControlUpdate:
		return "control-update"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one scheduled occurrence. Which payload fields are
// meaningful depends on Kind:
//
//   - PaymentArrival / PaymentComplete: ID is the payment ID and
//     Attempt the retry attempt (0 = first try).
//   - ChannelOpen / ChannelClose / Rebalance: A and B are the channel
//     endpoints; for ChannelOpen, Amount > 0 funds each direction with
//     that balance (0 keeps the frozen balances).
//   - DemandShift: Amount is the new payment-amount scale factor.
//   - FeeShift: A and B are the channel endpoints, Amount the factor
//     both directions' fee schedules are multiplied by.
//   - DeadlineExpiry: ID is the payment ID and Attempt the retry
//     attempt whose hold expired.
//   - ControlUpdate: ID is the knob code of the applied decision
//     (internal/control's Knob values; 0 marks a bare cadence tick), A
//     the sender for per-sender knobs, and Amount the knob's new
//     effective value.
type Event struct {
	Time float64 // virtual seconds
	Seq  uint64  // stamped by Queue.Schedule; total-order tie-break
	Kind Kind

	ID      int64
	Attempt int
	A, B    topo.NodeID
	Amount  float64
}

// String renders the event for the deterministic log.
func (e Event) String() string {
	switch e.Kind {
	case PaymentArrival, PaymentComplete, DeadlineExpiry:
		return fmt.Sprintf("t=%.6f %s id=%d try=%d", e.Time, e.Kind, e.ID, e.Attempt)
	case ChannelOpen, ChannelClose, Rebalance, FeeShift:
		return fmt.Sprintf("t=%.6f %s %d-%d amt=%g", e.Time, e.Kind, e.A, e.B, e.Amount)
	case DemandShift:
		return fmt.Sprintf("t=%.6f %s factor=%g", e.Time, e.Kind, e.Amount)
	case ControlUpdate:
		return fmt.Sprintf("t=%.6f %s knob=%d sender=%d value=%g", e.Time, e.Kind, e.ID, e.A, e.Amount)
	default:
		return fmt.Sprintf("t=%.6f %s", e.Time, e.Kind)
	}
}

// before is the queue's total order: time, then scheduling sequence.
func (e Event) before(o Event) bool {
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	return e.Seq < o.Seq
}

// Queue is a min-heap of events ordered by (Time, Seq). The zero
// value is an empty, ready-to-use queue; NewQueue exists for
// call-site readability.
type Queue struct {
	h   eventHeap
	seq uint64
}

// NewQueue returns an empty event queue.
func NewQueue() *Queue { return &Queue{} }

// Schedule stamps e with the next sequence number, pushes it, and
// returns the stamped event. Events may be scheduled in any time
// order; Pop yields them in (Time, Seq) order.
func (q *Queue) Schedule(e Event) Event {
	e.Seq = q.seq
	q.seq++
	heap.Push(&q.h, e)
	return e
}

// Pop removes and returns the earliest event, or ok=false on empty.
func (q *Queue) Pop() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return heap.Pop(&q.h).(Event), true
}

// Peek returns the earliest event without removing it.
func (q *Queue) Peek() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

type eventHeap []Event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Clock is the virtual clock: it only moves forward, driven by the
// timestamps of popped events.
type Clock struct {
	now float64
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// AdvanceTo moves the clock to t. Moving backwards is an engine bug
// (the queue yields events in time order) and panics.
func (c *Clock) AdvanceTo(t float64) {
	if t < c.now {
		panic(fmt.Sprintf("event: clock moved backwards: %v -> %v", c.now, t))
	}
	c.now = t
}

// Log records applied events: per-kind counts and an incremental
// fingerprint are always maintained; the full entry list only when
// Retain is set (long runs fingerprint in O(1) memory). It backs the
// determinism guarantee: two runs with the same seed must produce
// fingerprint-identical logs.
type Log struct {
	// Retain keeps every recorded event in memory (Events).
	Retain bool

	entries []Event
	counts  [NumKinds]int
	hash    Hash
	n       int
}

// Record applies an event to the log.
func (l *Log) Record(e Event) {
	if l.n == 0 {
		l.hash = NewHash()
	}
	l.n++
	l.hash = l.hash.Add(e)
	if int(e.Kind) < NumKinds {
		l.counts[e.Kind]++
	}
	if l.Retain {
		l.entries = append(l.entries, e)
	}
}

// Len returns the number of recorded events.
func (l *Log) Len() int { return l.n }

// Events returns the retained events in application order (nil unless
// Retain was set). The caller must not modify the returned slice.
func (l *Log) Events() []Event { return l.entries }

// Counts returns the per-kind applied-event counts.
func (l *Log) Counts() [NumKinds]int { return l.counts }

// Fingerprint returns the order-sensitive FNV-1a digest of everything
// recorded so far.
func (l *Log) Fingerprint() uint64 {
	if l.n == 0 {
		return uint64(NewHash())
	}
	return uint64(l.hash)
}

// Hash is an incremental FNV-1a digest over applied events, for
// engines that want a determinism fingerprint without retaining the
// full log in memory.
type Hash uint64

// NewHash returns the FNV-1a offset basis.
func NewHash() Hash { return 14695981039346656037 }

// Add folds one event's raw fields into the digest and returns the new
// value. Hashing the fields directly (rather than a rendered string)
// keeps the digest off the event loop's allocation path.
func (h Hash) Add(e Event) Hash {
	v := uint64(h)
	v = fnvWord(v, math.Float64bits(e.Time))
	v = fnvWord(v, e.Seq)
	v = fnvWord(v, uint64(e.Kind))
	v = fnvWord(v, uint64(e.ID))
	v = fnvWord(v, uint64(int64(e.Attempt)))
	v = fnvWord(v, uint64(uint32(e.A))<<32|uint64(uint32(e.B)))
	v = fnvWord(v, math.Float64bits(e.Amount))
	return Hash(v)
}

// fnvWord folds one 64-bit word into an FNV-1a state, byte by byte.
func fnvWord(h, w uint64) uint64 {
	const prime64 = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= w & 0xFF
		h *= prime64
		w >>= 8
	}
	return h
}
