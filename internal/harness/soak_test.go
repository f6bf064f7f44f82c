package harness

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/distance"
	"repro/internal/telemetry"
)

// countingSink is a minimal ProbeSink counting events atomically (the
// soak feeds it from many goroutines).
type countingSink struct {
	spikes, distanceOps, congestRounds, fleetDeliveries atomic.Int64
}

func (s *countingSink) OnStep(t int64, spikes, deliveries, active, queueDepth int) {
	s.spikes.Add(int64(spikes))
}
func (s *countingSink) OnDistanceOp(kind distance.OpKind, cost int64) { s.distanceOps.Add(1) }
func (s *countingSink) OnCongestRound(round int, messages, bits int64) {
	s.congestRounds.Add(1)
}
func (s *countingSink) OnFleetDelivery(t int64, fromChip, toChip int) { s.fleetDeliveries.Add(1) }

func TestSoakRunsEveryWorkload(t *testing.T) {
	rep, err := Soak(SoakConfig{Workers: 2, Iters: 4, Seed: 1, Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 8 || rep.Errors != 0 {
		t.Fatalf("runs %d errors %d, want 8/0", rep.Runs, rep.Errors)
	}
	for _, w := range SoakWorkloads {
		if rep.PerWorkload[w] == 0 {
			t.Errorf("workload %s never ran: %v", w, rep.PerWorkload)
		}
	}
	if rep.Stats.Spikes == 0 || rep.Stats.Deliveries == 0 || rep.Stats.Steps == 0 {
		t.Errorf("SNN totals empty: %+v", rep)
	}
	if rep.RatePerSecond() <= 0 {
		t.Errorf("rate %v, want > 0", rep.RatePerSecond())
	}
}

func TestSoakUnknownWorkload(t *testing.T) {
	if _, err := Soak(SoakConfig{Workers: 1, Iters: 1, Mix: []string{"bogus"}}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestSoakDeterministic runs the same campaign twice with Deterministic
// set; the submitted manifests must be byte-identical across campaigns
// (keyed by workload and seed — submission order varies with
// scheduling).
func TestSoakDeterministic(t *testing.T) {
	collect := func() map[string][]byte {
		var mu sync.Mutex
		out := make(map[string][]byte)
		rep, err := Soak(SoakConfig{
			Workers: 3, Iters: 3, Seed: 42, Deterministic: true,
			Submit: func(m *telemetry.Manifest) error {
				var b bytes.Buffer
				if err := m.Encode(&b); err != nil {
					return err
				}
				mu.Lock()
				out[fmt.Sprintf("%s/%v", m.Command, m.Config["soak_seed"])] = b.Bytes()
				mu.Unlock()
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Runs != 9 {
			t.Fatalf("runs %d, want 9", rep.Runs)
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) != 9 || len(b) != 9 {
		t.Fatalf("campaign produced %d/%d distinct (workload, seed) manifests, want 9", len(a), len(b))
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			t.Errorf("run %s missing from second campaign", k)
			continue
		}
		if !bytes.Equal(av, bv) {
			t.Errorf("run %s not byte-identical across campaigns:\n%s\nvs\n%s", k, av, bv)
		}
	}
}

// TestSoakSubmitErrorsCounted checks the sustained-load contract: a
// failing Submit marks the run as errored and surfaces the first error,
// but the remaining runs still execute.
func TestSoakSubmitErrorsCounted(t *testing.T) {
	boom := errors.New("sink unavailable")
	var mu sync.Mutex
	calls := 0
	rep, err := Soak(SoakConfig{
		Workers: 2, Iters: 3, Seed: 7, Deterministic: true,
		Submit: func(*telemetry.Manifest) error {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if calls%2 == 1 {
				return boom
			}
			return nil
		},
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if rep.Runs+rep.Errors != 6 {
		t.Fatalf("runs %d + errors %d != 6", rep.Runs, rep.Errors)
	}
	if rep.Errors == 0 || rep.Runs == 0 {
		t.Fatalf("expected a mix of successes and failures, got %d/%d", rep.Runs, rep.Errors)
	}
}

// TestSoakProbeSeesRuns attaches a counting probe and checks the tee:
// the shared sink observes the same steps the manifests record.
func TestSoakProbeSeesRuns(t *testing.T) {
	probe := &countingSink{}
	var mu sync.Mutex
	var manifestSpikes int64
	rep, err := Soak(SoakConfig{
		Workers: 2, Iters: 4, Seed: 11, Deterministic: true,
		Probes: probe,
		Submit: func(m *telemetry.Manifest) error {
			if m.Stats != nil {
				mu.Lock()
				manifestSpikes += m.Stats.Spikes
				mu.Unlock()
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := probe.spikes.Load(); got != rep.Stats.Spikes || got != manifestSpikes {
		t.Errorf("probe saw %d spikes, report %d, manifests %d — must all agree",
			got, rep.Stats.Spikes, manifestSpikes)
	}
	if probe.distanceOps.Load() == 0 {
		t.Error("probe saw no DISTANCE ops; table1 workload not teed")
	}
	if probe.congestRounds.Load() == 0 {
		t.Error("probe saw no CONGEST rounds; congest workload not teed")
	}
	if probe.fleetDeliveries.Load() == 0 {
		t.Error("probe saw no fleet deliveries; fleet workload not teed")
	}
}
