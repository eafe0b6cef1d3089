package main

import (
	"fmt"
	"math"

	"repro/internal/event"
	"repro/internal/sim"
)

// outcome is the deterministic part of a run's result: with one
// worker, every field is a pure function of the workload and seed, so
// repeated runs, traced or not, must agree on all of it.
type outcome struct {
	Fingerprint    uint64
	Payments       int
	Successes      int
	SuccessVolume  float64
	AttemptVolume  float64
	FeesPaid       float64
	ProbeMessages  int64
	CommitMessages int64
	EventCounts    [event.NumKinds]int
	SpanAborts     int
	Expiries       int
	Decisions      int
}

func outcomeOf(res sim.DynamicResult) outcome {
	a := res.Aggregate
	return outcome{
		Fingerprint:    res.Fingerprint,
		Payments:       a.Payments,
		Successes:      a.Successes,
		SuccessVolume:  a.SuccessVolume,
		AttemptVolume:  a.AttemptVolume,
		FeesPaid:       a.FeesPaid,
		ProbeMessages:  a.ProbeMessages,
		CommitMessages: a.CommitMessages,
		EventCounts:    res.EventCounts,
		SpanAborts:     res.SpanAborts,
		Expiries:       res.DeadlineExpiries,
		Decisions:      res.ControlDecisions,
	}
}

// fundsTolerance is the relative drift of Network.TotalFunds a run may
// show: payments only move funds, but summing thousands of balances in
// floating point is not exact.
const fundsTolerance = 1e-9

// checkFunds fails when the network's total funds changed over a run.
func checkFunds(before, after float64) error {
	if math.IsNaN(after) || math.Abs(after-before) > fundsTolerance*math.Max(1, math.Abs(before)) {
		return fmt.Errorf("funds not conserved: %.6f before the run, %.6f after", before, after)
	}
	return nil
}

// checkArrivals fails unless every arrival the source handed over
// before the horizon was counted exactly once in the aggregate.
func checkArrivals(handed int, res sim.DynamicResult) error {
	if handed < 1 {
		return fmt.Errorf("source handed over no arrivals before the horizon")
	}
	if res.Aggregate.Payments != handed {
		return fmt.Errorf("aggregate counts %d payments, source handed over %d", res.Aggregate.Payments, handed)
	}
	// The workloads configure no retries, so every arrival event is a
	// first arrival, and every attempt settles exactly once: completed,
	// or expired at its deadline.
	c := res.EventCounts
	if c[event.PaymentArrival] != handed {
		return fmt.Errorf("event log has %d arrivals, source handed over %d", c[event.PaymentArrival], handed)
	}
	if settled := c[event.PaymentComplete] + c[event.DeadlineExpiry]; settled != handed {
		return fmt.Errorf("event log settles %d payments, source handed over %d", settled, handed)
	}
	return nil
}

// checkSame fails when a run's deterministic outcome differs from the
// reference run of the same workload and seed.
func checkSame(ref, got outcome, what string) error {
	if got != ref {
		if got.Fingerprint != ref.Fingerprint {
			return fmt.Errorf("%s: fingerprint %016x differs from the reference %016x", what, got.Fingerprint, ref.Fingerprint)
		}
		return fmt.Errorf("%s: deterministic metrics differ from the reference run: %+v vs %+v", what, got, ref)
	}
	return nil
}
