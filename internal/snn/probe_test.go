package snn

import (
	"strings"
	"testing"
)

// countingProbe is a minimal StepProbe for engine-level tests (the full
// aggregating implementation lives in internal/telemetry).
type countingProbe struct {
	steps, spikes, deliveries int64
	maxQueue                  int64
}

func (p *countingProbe) OnStep(t int64, spikes, deliveries, active, queueDepth int) {
	p.steps++
	p.spikes += int64(spikes)
	p.deliveries += int64(deliveries)
	if q := int64(queueDepth); q > p.maxQueue {
		p.maxQueue = q
	}
}

// lossyInjector is a stub fault model for the probe/Stats invariant: it
// drops every third scheduled delivery and suppresses the threshold
// fires of every seventh neuron, counting both so the test can tell the
// faults actually landed.
type lossyInjector struct {
	scheduled, dropped, suppressed int
}

func (l *lossyInjector) Prepare(*Network) {}

func (l *lossyInjector) FilterDelivery(t int64, from, to int32, w float64, d int64) (float64, int64, bool) {
	l.scheduled++
	if l.scheduled%3 == 0 {
		l.dropped++
		return w, d, true
	}
	return w, d, false
}

func (l *lossyInjector) FilterFire(t int64, i int32, induced bool) bool {
	if !induced && i%7 == 0 {
		l.suppressed++
		return false
	}
	return true
}

func (l *lossyInjector) PerturbVoltage(int64, int32) float64 { return 0 }

// TestProbeSeesEveryStep pins the invariant that lets reports take engine
// totals from Stats instead of a step probe: however a run ends, a probe
// summing OnStep sees exactly the steps, spikes and deliveries Stats
// counts, and never a queue depth above Stats.MaxQueueDepth.
func TestProbeSeesEveryStep(t *testing.T) {
	// The terminal case halts on a neuron that first fires mid-run in a
	// reference simulation of the same netlist.
	ref := buildWavefront(128, 512, 11)
	refRun := ref.Run(1 << 30)
	terminal := -1
	for i := 0; i < ref.N(); i++ {
		if ft := ref.FirstSpike(i); ft > 0 && ft < refRun.Now/2 {
			terminal = i
		}
	}
	if terminal < 0 {
		t.Fatal("reference run has no mid-run spike to halt on")
	}

	inj := &lossyInjector{}
	cases := []struct {
		name    string
		maxTime int64
		setup   func(*Network)
		check   func(Result) bool
	}{
		{"quiescent", 1 << 30, func(*Network) {}, func(r Result) bool { return r.Quiescent }},
		{"terminal", 1 << 30, func(n *Network) { n.SetTerminal(terminal) }, func(r Result) bool { return r.Halted }},
		{"max-time", refRun.Now / 3, func(*Network) {}, func(r Result) bool { return r.TimedOut }},
		{"injector", 1 << 30, func(n *Network) { n.SetInjector(inj) }, func(r Result) bool { return r.Quiescent }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := buildWavefront(128, 512, 11)
			tc.setup(net)
			p := &countingProbe{}
			net.SetProbe(p)
			r := net.Run(tc.maxTime)
			if !tc.check(r) {
				t.Fatalf("run ended the wrong way: %+v", r)
			}
			st := r.Stats
			if st != net.TotalStats() {
				t.Fatalf("result stats %+v, network stats %+v", st, net.TotalStats())
			}
			if st.Steps == 0 {
				t.Fatal("run processed no steps")
			}
			if p.steps != st.Steps {
				t.Fatalf("probe saw %d steps, stats %d", p.steps, st.Steps)
			}
			if p.spikes != st.Spikes {
				t.Fatalf("probe saw %d spikes, stats %d", p.spikes, st.Spikes)
			}
			if p.deliveries != st.Deliveries {
				t.Fatalf("probe saw %d deliveries, stats %d", p.deliveries, st.Deliveries)
			}
			if p.maxQueue > st.MaxQueueDepth {
				t.Fatalf("probe max queue %d exceeds stats %d", p.maxQueue, st.MaxQueueDepth)
			}
		})
	}
	if inj.dropped == 0 || inj.suppressed == 0 {
		t.Fatalf("stub injector landed no faults: %+v", *inj)
	}
}

// TestEngineProbeZeroAlloc pins the probe hook's zero-allocation
// contract in the regular suite: a full wavefront simulation with a
// counting probe attached allocates as much as the same run with none.
func TestEngineProbeZeroAlloc(t *testing.T) {
	measure := func(probe StepProbe) float64 {
		return testing.AllocsPerRun(5, func() {
			net := buildWavefront(512, 2048, 9)
			net.SetProbe(probe)
			net.Run(1 << 30)
		})
	}
	base := measure(nil)
	// Hundreds of steps would show up as hundreds of objects; allow a few
	// whole-run objects of runtime noise.
	if with := measure(&countingProbe{}); with > base+4 {
		t.Errorf("probe added allocations: %.0f objects/run with it, %.0f without", with, base)
	}
}

func TestStatsQueueDepthAndSilentSkips(t *testing.T) {
	// A three-neuron chain with delay-10 synapses: the engine processes
	// exactly 3 steps (t=0,10,20) and skips the 18 silent ones between.
	net := NewNetwork(Config{})
	a := net.AddNeuron(Gate(1))
	b := net.AddNeuron(Gate(1))
	c := net.AddNeuron(Gate(1))
	net.Connect(a, b, 1, 10)
	net.Connect(b, c, 1, 10)
	net.InduceSpike(a, 0)
	net.Run(100)
	st := net.TotalStats()
	if st.Steps != 3 {
		t.Fatalf("steps %d", st.Steps)
	}
	if st.SilentStepsSkipped != 18 {
		t.Fatalf("silent skips %d, want 18", st.SilentStepsSkipped)
	}
	// Queue high-water: at most one delivery is ever in flight.
	if st.MaxQueueDepth != 1 {
		t.Fatalf("max queue depth %d, want 1", st.MaxQueueDepth)
	}

	// Reset clears the new counters too.
	net.Reset()
	if got := net.TotalStats(); got != (Stats{}) {
		t.Fatalf("stats after reset: %+v", got)
	}
	// A silent gap before the first event counts as skipped.
	net.InduceSpike(a, 5)
	net.Run(100)
	if got := net.TotalStats().SilentStepsSkipped; got != 5+18 {
		t.Fatalf("silent skips after reset %d, want 23", got)
	}
}

func TestMaxQueueDepthCountsFanout(t *testing.T) {
	// A hub spiking into 50 targets schedules 50 deliveries at once.
	net := NewNetwork(Config{})
	hub := net.AddNeuron(Gate(1))
	for i := 0; i < 50; i++ {
		v := net.AddNeuron(Gate(1))
		net.Connect(hub, v, 1, int64(1+i%7))
	}
	net.InduceSpike(hub, 0)
	net.Run(100)
	if got := net.TotalStats().MaxQueueDepth; got != 50 {
		t.Fatalf("max queue depth %d, want 50", got)
	}
}

func TestRenderRasterTensMarks(t *testing.T) {
	n := NewNetwork(Config{Record: true})
	a := n.AddNeuron(Gate(1))
	n.InduceSpike(a, 0)
	n.Run(40)
	out := n.RenderRaster([]int{a}, nil, 0, 35)
	header := strings.Split(out, "\n")[0]
	for _, tick := range []string{"t=0", "10", "20", "30"} {
		if !strings.Contains(header, tick) {
			t.Fatalf("header %q missing tick %q", header, tick)
		}
	}
	// Each tick must start in the column of its time step: the label
	// column width is len("n0") = 2, plus one separator space.
	if idx := strings.Index(header, "10"); idx != 2+1+10 {
		t.Fatalf("tick 10 at column %d of %q", idx, header)
	}
	if idx := strings.Index(header, "30"); idx != 2+1+30 {
		t.Fatalf("tick 30 at column %d of %q", idx, header)
	}

	// Short ranges keep the t=from label and gain no spurious ticks.
	short := n.RenderRaster([]int{a}, nil, 3, 7)
	h := strings.Split(short, "\n")[0]
	if !strings.Contains(h, "t=3") || strings.Contains(h, "10") {
		t.Fatalf("short header %q", h)
	}
	// A tick whose column would collide with the previous label is dropped
	// rather than corrupted: from=8 puts "t=8" at columns 0-2, colliding
	// with the tick for 10 (column 2); 20 (column 12) still lands.
	collide := n.RenderRaster([]int{a}, nil, 8, 28)
	h = strings.Split(collide, "\n")[0]
	if !strings.Contains(h, "t=8") || !strings.Contains(h, "20") {
		t.Fatalf("collision header %q", h)
	}
	if strings.Contains(h, "10") {
		t.Fatalf("collision header kept overlapping tick: %q", h)
	}
}
