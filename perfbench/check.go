package main

import (
	"fmt"

	"repro/internal/snn"
)

// verifier checks every operation's answer against its reference, always
// outside the timed region, and keeps the run's verdict counts. One
// wrong answer makes the whole run incorrect.
type verifier struct {
	attempted int
	failed    int // operations with no verified answer: errors and wrong answers
	wrong     int
	firstErr  error
}

// check records one attempted operation whose answer got must equal want.
func (v *verifier) check(what string, got, want []int64) bool {
	v.attempted++
	if err := diffDist(got, want); err != nil {
		v.wrong++
		v.failed++
		v.note(fmt.Errorf("%s: %w", what, err))
		return false
	}
	return true
}

// checkSum is check for an answer kept only as its distSum.
func (v *verifier) checkSum(what string, got, want distSum) bool {
	v.attempted++
	if got != want {
		v.wrong++
		v.failed++
		v.note(fmt.Errorf("%s: distances (%d entries) differ from the reference (%d entries)", what, got.n, want.n))
		return false
	}
	return true
}

// fail records one attempted operation that produced no answer.
func (v *verifier) fail(what string, err error) {
	v.attempted++
	v.failed++
	v.note(fmt.Errorf("%s: %w", what, err))
}

func (v *verifier) note(err error) {
	if v.firstErr == nil {
		v.firstErr = err
	}
}

// correct reports whether every checked answer matched its reference.
func (v *verifier) correct() bool { return v.wrong == 0 }

// diffDist returns an error naming the first vertex whose distance
// differs, or nil when got equals want.
func diffDist(got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("distance vector has %d entries, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("dist[%d] = %d, reference %d", i, got[i], want[i])
		}
	}
	return nil
}

// snnCounters sums the engine's own statistics over the first
// fingerprintOps operations of a workload's seeded sequence. Host speed
// cannot change them: two runs of the same code and seed must print the
// same counters, whatever their timings.
type snnCounters struct {
	Ops                int   `json:"ops"`
	Spikes             int64 `json:"spikes"`
	Deliveries         int64 `json:"deliveries"`
	Steps              int64 `json:"steps"`
	SilentStepsSkipped int64 `json:"silent_steps_skipped"`
	MaxQueueDepth      int64 `json:"max_queue_depth"`
}

// fingerprintOps is how many leading operations the counters cover;
// every run completes at least this many.
const fingerprintOps = 3

// add folds one operation's statistics in, until fingerprintOps are in.
func (c *snnCounters) add(s snn.Stats) {
	if c.Ops >= fingerprintOps {
		return
	}
	c.Ops++
	c.Spikes += s.Spikes
	c.Deliveries += s.Deliveries
	c.Steps += s.Steps
	c.SilentStepsSkipped += s.SilentStepsSkipped
	if s.MaxQueueDepth > c.MaxQueueDepth {
		c.MaxQueueDepth = s.MaxQueueDepth
	}
}

func (c snnCounters) metrics(vals map[string]float64) {
	vals["snn.spikes"] = float64(c.Spikes)
	vals["snn.deliveries"] = float64(c.Deliveries)
	vals["snn.steps"] = float64(c.Steps)
	vals["snn.silent_steps_skipped"] = float64(c.SilentStepsSkipped)
	vals["snn.max_queue_depth"] = float64(c.MaxQueueDepth)
}
