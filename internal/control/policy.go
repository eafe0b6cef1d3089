package control

import (
	"fmt"
	"strings"
)

// Policy is the declarative control-plane spec the engine and CLIs
// consume: which policies run and with what parameters. The zero value
// is the inert policy (no controllers, byte-identical to a run without
// a control plane). Policy is a plain value — Controllers builds the
// stateful controller set fresh per run, so one spec can parameterise
// many runs without sharing estimator state.
type Policy struct {
	// Threshold selects the global threshold policy: "" (off), "raw"
	// (the unsmoothed per-window swap) or "ewma" (confidence-gated
	// smoothing).
	Threshold string
	// PerSender enables the sharded per-sender threshold policy.
	PerSender bool
	// ProbeWidth enables the adaptive probe-width policy.
	ProbeWidth bool

	// MiceFraction is the quantile every threshold policy tracks
	// (default 0.9).
	MiceFraction float64
	// Window is the control cadence in virtual seconds; 0 defers to
	// the engine's metrics-window length.
	Window float64
	// Alpha, Confidence, Band, Snap tune the "ewma" policy (see
	// SmoothedThresholdConfig; zero fields take its defaults).
	Alpha, Confidence, Band, Snap float64
	// MinSamples gates the global threshold policies (default 20).
	MinSamples int
	// SenderMinSamples, SenderBand, MaxSenders tune the per-sender
	// policy (see PerSenderThresholdConfig; zero fields take its
	// defaults).
	SenderMinSamples int
	SenderBand       float64
	MaxSenders       int
	// MinWidth, MaxWidth clamp the probe-width policy (see
	// ProbeWidthConfig; zero fields take its defaults).
	MinWidth, MaxWidth int
}

// Enabled reports whether the policy runs any controller at all.
func (p Policy) Enabled() bool {
	return p.Threshold != "" || p.PerSender || p.ProbeWidth
}

// Spec renders the canonical comma-separated policy spec ("" when
// inert) — the inverse of ParsePolicy, used in run headers so a
// rendered run names the policies that shaped it.
func (p Policy) Spec() string {
	var parts []string
	if p.Threshold != "" {
		parts = append(parts, p.Threshold)
	}
	if p.PerSender {
		parts = append(parts, "sender")
	}
	if p.ProbeWidth {
		parts = append(parts, "width")
	}
	return strings.Join(parts, ",")
}

// Controllers builds the policy's controller set, in the fixed plane
// order: global threshold, per-sender thresholds, probe width. It
// errors on an unknown Threshold selector.
func (p Policy) Controllers() ([]Controller, error) {
	var cs []Controller
	switch p.Threshold {
	case "":
	case "raw":
		min := p.MinSamples
		if min == 0 {
			min = 20
		}
		frac := p.MiceFraction
		if frac == 0 {
			frac = 0.9
		}
		cs = append(cs, NewRawThreshold(frac, min))
	case "ewma":
		cs = append(cs, NewSmoothedThreshold(SmoothedThresholdConfig{
			MiceFraction: p.MiceFraction,
			Alpha:        p.Alpha,
			Confidence:   p.Confidence,
			Band:         p.Band,
			Snap:         p.Snap,
			MinSamples:   p.MinSamples,
		}))
	default:
		return nil, fmt.Errorf("control: unknown threshold policy %q (want \"raw\" or \"ewma\")", p.Threshold)
	}
	if p.PerSender {
		cs = append(cs, NewPerSenderThreshold(PerSenderThresholdConfig{
			MiceFraction: p.MiceFraction,
			Band:         p.SenderBand,
			MinSamples:   p.SenderMinSamples,
			MaxSenders:   p.MaxSenders,
		}))
	}
	if p.ProbeWidth {
		cs = append(cs, NewProbeWidth(ProbeWidthConfig{
			MinWidth: p.MinWidth,
			MaxWidth: p.MaxWidth,
		}))
	}
	return cs, nil
}

// ParsePolicy parses a comma-separated policy spec — the flashsim
// -control flag syntax. Accepted items: "raw", "ewma" (global
// threshold policies, mutually exclusive), "sender", "width". "off"
// alone (or the empty string) is the inert policy. Parameters beyond
// the selection keep their defaults; callers wanting to tune them set
// Policy fields directly.
func ParsePolicy(spec string) (Policy, error) {
	var p Policy
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return p, nil
	}
	for _, item := range strings.Split(spec, ",") {
		switch strings.TrimSpace(item) {
		case "raw", "ewma":
			if p.Threshold != "" {
				return Policy{}, fmt.Errorf("control: policy spec %q selects two global threshold policies", spec)
			}
			p.Threshold = strings.TrimSpace(item)
		case "sender":
			p.PerSender = true
		case "width":
			p.ProbeWidth = true
		case "":
			return Policy{}, fmt.Errorf("control: empty item in policy spec %q", spec)
		default:
			return Policy{}, fmt.Errorf("control: unknown policy %q (want raw, ewma, sender or width)", strings.TrimSpace(item))
		}
	}
	return p, nil
}
