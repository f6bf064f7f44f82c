package harness

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// TestSoakTimedOutCountedNotFatal: a workload cut off by the per-run
// budget (core.ErrTimedOut) must be counted as TimedOut in the report —
// the campaign neither aborts nor records it as an error, and the
// degraded run still completes and submits its manifest.
func TestSoakTimedOutCountedNotFatal(t *testing.T) {
	var mu sync.Mutex // Submit runs on the worker goroutines
	var submitted []*telemetry.Manifest
	rep, err := Soak(SoakConfig{
		Workers: 2, Iters: 2, Seed: 3,
		Mix:           []string{"sssp"},
		Budget:        1, // one simulated step: every wavefront is cut off
		Deterministic: true,
		Submit: func(m *telemetry.Manifest) error {
			mu.Lock()
			defer mu.Unlock()
			submitted = append(submitted, m)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("budget-starved campaign aborted: %v", err)
	}
	if rep.Errors != 0 || rep.FirstError != nil {
		t.Fatalf("timed-out runs recorded as errors: errors=%d first=%v", rep.Errors, rep.FirstError)
	}
	if rep.TimedOut != 4 {
		t.Fatalf("TimedOut = %d, want 4 (every run budget-cut)", rep.TimedOut)
	}
	if rep.Runs != 4 {
		t.Fatalf("Runs = %d, want 4 (degraded runs still complete)", rep.Runs)
	}
	if len(submitted) != 4 {
		t.Fatalf("submitted %d manifests, want 4 (degraded runs still submit)", len(submitted))
	}
}

// TestSoakChaosCampaignDeterministic: a faulted soak (chaos campaign) is
// byte-reproducible — same seed, same fault model, same manifests.
func TestSoakChaosCampaignDeterministic(t *testing.T) {
	run := func() map[string]string {
		var mu sync.Mutex // Submit runs on the worker goroutines
		out := make(map[string]string)
		_, err := Soak(SoakConfig{
			Workers: 2, Iters: 2, Seed: 7,
			Mix:           []string{"sssp", "fleet"},
			Fault:         faults.Model{DropProb: 0.05, JitterProb: 0.1, JitterMax: 2, Seed: 7},
			Deterministic: true,
			Submit: func(m *telemetry.Manifest) error {
				key := m.Command + fmt.Sprint(m.Config["soak_seed"])
				var b bytes.Buffer
				if err := m.Encode(&b); err != nil {
					return err
				}
				mu.Lock()
				defer mu.Unlock()
				out[key] = b.String()
				return nil
			},
		})
		if err != nil {
			t.Fatalf("chaos soak failed: %v", err)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("campaign sizes %d/%d, want 4", len(a), len(b))
	}
	for k, av := range a {
		if b[k] != av {
			t.Fatalf("chaos soak manifest %s not byte-reproducible", k)
		}
	}
}

// TestSoakFaultedRunsDifferFromPristine: the injector actually engages —
// a faulted campaign's aggregate deliveries differ from the pristine
// campaign's on the same seeds.
func TestSoakFaultedRunsDifferFromPristine(t *testing.T) {
	base, err := Soak(SoakConfig{Workers: 1, Iters: 2, Seed: 11, Mix: []string{"sssp"}, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Soak(SoakConfig{
		Workers: 1, Iters: 2, Seed: 11, Mix: []string{"sssp"}, Deterministic: true,
		Fault: faults.Model{DropProb: 0.2, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.Deliveries == faulted.Stats.Deliveries {
		t.Fatalf("faulted campaign deliveries == pristine (%d): injector not engaged", base.Stats.Deliveries)
	}
}
