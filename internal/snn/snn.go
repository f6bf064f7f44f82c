// Package snn implements the discrete-time leaky-integrate-and-fire (LIF)
// spiking neural network model of Definitions 1-3 of Aimone et al.,
// "Provable Advantages for Graph Algorithms in Spiking Neural Networks"
// (SPAA 2021).
//
// # Dynamics
//
// Time proceeds in integer steps t >= 0. Each neuron j carries a voltage
// v_j(t) initialized to its reset value. At every step,
//
//	v̂(t) = v(t-1) - (v(t-1) - v_reset)·τ + v_syn(t)
//	f(t) = 1  iff  v̂(t) crosses v_threshold (see FireRule)
//	v(t) = v_reset if f(t)=1, else v̂(t)
//
// where v_syn(t) sums w_ij over synapses ij whose presynaptic neuron fired
// at time t - d_ij. A spike emitted at time T across a synapse with delay d
// therefore influences the postsynaptic firing decision at exactly T+d;
// this is the effective-latency convention every circuit in the paper's
// Section 5 assumes (e.g. the self-loop latch of Figure 1B fires on every
// step). Delays must be >= 1 (the paper's hardware minimum δ).
//
// # Fire rule
//
// Definition 2 states a strict comparison (v̂ > v_threshold), but the
// Section 5 circuits use unit weights with integer thresholds that only
// function under v̂ >= v_threshold (a threshold-2 AND fed by two unit
// synapses). Both rules are supported; FireGTE is the default used by all
// circuits and algorithms in this repository.
//
// # Engine
//
// The simulator is event-driven: between synaptic deliveries no neuron can
// newly cross its threshold (voltages decay toward reset, and reset must
// lie strictly below threshold), so the engine skips silent time steps and
// its running time is proportional to the number of spike deliveries, not
// to wall-clock simulated time. Voltage decay across skipped steps is
// applied lazily and exactly.
package snn

import (
	"container/heap"
	"fmt"
	"math"
)

// FireRule selects the threshold comparison.
type FireRule int

const (
	// FireGTE fires when v̂ >= v_threshold (used by the paper's circuits).
	FireGTE FireRule = iota
	// FireStrict fires when v̂ > v_threshold (Definition 2 verbatim).
	FireStrict
)

func (r FireRule) String() string {
	if r == FireStrict {
		return "strict"
	}
	return "gte"
}

// Neuron holds the three programmable parameters of Definition 1.
type Neuron struct {
	Reset     float64 // v_reset
	Threshold float64 // v_threshold
	Decay     float64 // τ in [0,1]; 0 = perfect integrator, 1 = memoryless gate
}

// Gate returns the memoryless threshold-gate neuron used throughout the
// Section 5 circuits: reset 0, the given threshold, and full decay, so
// each step's firing decision depends only on that step's inputs.
func Gate(threshold float64) Neuron {
	return Neuron{Reset: 0, Threshold: threshold, Decay: 1}
}

// Integrator returns a no-leak accumulator neuron (τ = 0) with reset 0,
// used by the delay gadget of Figure 1A and the SSSP relay neurons.
func Integrator(threshold float64) Neuron {
	return Neuron{Reset: 0, Threshold: threshold, Decay: 0}
}

// synapse is a directed connection with programmable weight and delay.
type synapse struct {
	to     int32
	weight float64
	delay  int64
}

// delivery is a scheduled synaptic arrival.
type delivery struct {
	to     int32
	from   int32
	weight float64
}

// bucket collects everything that happens at one future time step.
// delays carries per-delivery synaptic delays for provenance capture; it
// is populated (index-aligned with deliveries) only while a FlightProbe
// is attached, so the recorder-off path allocates nothing extra.
type bucket struct {
	deliveries []delivery
	forced     []int32
	delays     []int64
}

// timeHeap is a min-heap of pending event times.
type timeHeap []int64

func (h timeHeap) Len() int           { return len(h) }
func (h timeHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h timeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timeHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *timeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Config controls optional simulator features.
type Config struct {
	Rule FireRule
	// Record keeps the full spike train of every neuron (memory O(spikes));
	// FirstSpike and FirstCause are always available without it.
	Record bool
}

// StepProbe observes every non-silent simulation step. The engine calls
// OnStep once per processed time step with that step's deltas: the number
// of neurons that fired, the synaptic deliveries consumed, the neurons
// whose membrane state was touched, and the pending-event queue depth
// (deliveries plus induced spikes still scheduled) after the step. All
// arguments are scalars so a probe costs one interface call and zero
// allocations; a nil probe costs a single predictable branch
// (telemetry.Recorder is the standard implementation).
type StepProbe interface {
	OnStep(t int64, spikes, deliveries, active, queueDepth int)
}

// Network is a spiking neural network: a directed graph of LIF neurons.
// Build the topology with AddNeuron/Connect, inject inputs with
// InduceSpike, then call Run. Reset restores dynamic state so the same
// topology can be re-run (the crossbar re-embedding workflow).
type Network struct {
	cfg     Config
	neurons []Neuron
	out     [][]synapse

	// dynamic state
	voltage []float64
	vtime   []int64 // time at which voltage[i] is current
	now     int64

	pending map[int64]*bucket
	times   timeHeap

	firstSpike []int64
	firstCause []int32
	spikeLog   [][]int64

	terminals   []int32
	terminalAll bool

	// accumulated synaptic input for the step being processed; reused.
	synIn     []float64
	synFrom   []int32 // positive-weight contributor for cause tracking
	touched   []int32
	touchedAt []int64 // generation marker per neuron

	gen int64

	stats Stats
	// pendingEvents counts scheduled-but-unconsumed deliveries and forced
	// spikes; its running maximum is Stats.MaxQueueDepth.
	pendingEvents int64
	lastStep      int64 // last processed step time, -1 before any step
	probe         StepProbe
	injector      Injector

	// causal provenance (see provenance.go); all nil/empty unless a
	// FlightProbe is attached.
	flight     FlightProbe
	ants       [][]Antecedent // per-neuron antecedents of the current step
	antTargets []int32        // neurons with non-empty ants, for clearing
	labels     []string
	labeler    func(i int) string
}

// Stats aggregates the cost measures of a simulation: Spikes is the total
// number of firings, Deliveries the number of synaptic events (the energy
// proxy of Table 3's pJ/spike-event accounting), and Steps the number of
// non-silent time steps actually processed. MaxQueueDepth is the high-water
// mark of scheduled-but-unconsumed events (deliveries + induced spikes),
// the engine's memory footprint; SilentStepsSkipped counts the simulated
// time steps the event-driven engine never materialized — the measurable
// payoff of the silence-skipping optimization (Steps + SilentStepsSkipped
// spans the simulated interval actually covered).
type Stats struct {
	Spikes             int64
	Deliveries         int64
	Steps              int64
	MaxQueueDepth      int64
	SilentStepsSkipped int64
}

// Add folds another run's stats into s: the counts sum, MaxQueueDepth
// keeps the larger high-water mark. It totals computations made of
// several engine runs (NMR replicas, self-check attempts).
func (s *Stats) Add(o Stats) {
	s.Spikes += o.Spikes
	s.Deliveries += o.Deliveries
	s.Steps += o.Steps
	s.SilentStepsSkipped += o.SilentStepsSkipped
	if o.MaxQueueDepth > s.MaxQueueDepth {
		s.MaxQueueDepth = o.MaxQueueDepth
	}
}

// NewNetwork returns an empty network with the given configuration.
func NewNetwork(cfg Config) *Network {
	return &Network{
		cfg:      cfg,
		pending:  make(map[int64]*bucket),
		lastStep: -1,
	}
}

// SetProbe installs (or, with nil, removes) a per-step observer. Probing
// adds no per-step allocations; with a nil probe the step loop pays only
// a nil check (guarded by BenchmarkEngineProbeOverhead).
func (n *Network) SetProbe(p StepProbe) { n.probe = p }

// N returns the number of neurons.
func (n *Network) N() int { return len(n.neurons) }

// Synapses returns the total number of synapses.
func (n *Network) Synapses() int {
	total := 0
	for i := range n.out {
		total += len(n.out[i])
	}
	return total
}

// AddNeuron adds a neuron and returns its index. The reset voltage must
// lie strictly below the threshold (under FireGTE) or at most equal to it
// (under FireStrict): otherwise the neuron would fire spontaneously forever
// and the event-driven engine's silence invariant would not hold.
func (n *Network) AddNeuron(p Neuron) int {
	if math.IsNaN(p.Reset) || math.IsNaN(p.Threshold) || math.IsNaN(p.Decay) {
		panic("snn: NaN neuron parameter")
	}
	if p.Decay < 0 || p.Decay > 1 {
		panic(fmt.Sprintf("snn: decay %v outside [0,1]", p.Decay))
	}
	if n.cfg.Rule == FireGTE && p.Reset >= p.Threshold {
		panic(fmt.Sprintf("snn: reset %v >= threshold %v would self-fire under GTE rule", p.Reset, p.Threshold))
	}
	if n.cfg.Rule == FireStrict && p.Reset > p.Threshold {
		panic(fmt.Sprintf("snn: reset %v > threshold %v would self-fire", p.Reset, p.Threshold))
	}
	idx := len(n.neurons)
	n.neurons = append(n.neurons, p)
	n.out = append(n.out, nil)
	n.voltage = append(n.voltage, p.Reset)
	n.vtime = append(n.vtime, 0)
	n.firstSpike = append(n.firstSpike, -1)
	n.firstCause = append(n.firstCause, -1)
	n.synIn = append(n.synIn, 0)
	n.synFrom = append(n.synFrom, -1)
	n.touchedAt = append(n.touchedAt, -1)
	if n.cfg.Record {
		n.spikeLog = append(n.spikeLog, nil)
	}
	return idx
}

// AddNeurons adds k copies of p and returns their indices.
func (n *Network) AddNeurons(k int, p Neuron) []int {
	ids := make([]int, k)
	for i := range ids {
		ids[i] = n.AddNeuron(p)
	}
	return ids
}

// Connect adds a synapse from -> to with the given weight and delay >= 1.
func (n *Network) Connect(from, to int, weight float64, delay int64) {
	if from < 0 || from >= len(n.neurons) || to < 0 || to >= len(n.neurons) {
		panic(fmt.Sprintf("snn: synapse (%d,%d) out of range [0,%d)", from, to, len(n.neurons)))
	}
	if delay < 1 {
		panic(fmt.Sprintf("snn: delay %d < minimum programmable delay 1", delay))
	}
	if math.IsNaN(weight) {
		panic("snn: NaN synapse weight")
	}
	n.out[from] = append(n.out[from], synapse{to: int32(to), weight: weight, delay: delay})
}

// InduceSpike forces neuron i to fire at time t >= current time. This is
// the input mechanism of Definition 3 (computation is initiated by
// inducing spikes in input neurons) and also encodes multi-bit spike
// messages as trains.
func (n *Network) InduceSpike(i int, t int64) {
	if i < 0 || i >= len(n.neurons) {
		panic(fmt.Sprintf("snn: induce on neuron %d of %d", i, len(n.neurons)))
	}
	if t < n.now {
		panic(fmt.Sprintf("snn: induce at past time %d (now %d)", t, n.now))
	}
	b := n.bucketAt(t)
	b.forced = append(b.forced, int32(i))
	n.pendingEvents++
}

// SetTerminal marks neuron i as a terminal: Run halts (after finishing the
// step) as soon as any terminal fires, per Definition 3.
func (n *Network) SetTerminal(i int) {
	n.terminals = append(n.terminals, int32(i))
}

// RequireAllTerminals switches the halting rule to "all terminals have
// fired" — the multiple-destination generalization the paper notes after
// Table 1 ("our algorithms can easily be generalized to multiple
// destinations").
func (n *Network) RequireAllTerminals() {
	n.terminalAll = true
}

// bucketAt resolves the pending-event bucket for time t, creating it on
// first use.
//
//lint:hotpath called once per scheduled delivery from the step loop
func (n *Network) bucketAt(t int64) *bucket {
	b, ok := n.pending[t]
	if !ok {
		b = &bucket{}
		n.pending[t] = b
		heap.Push(&n.times, t)
	}
	return b
}

// Result reports the outcome of Run.
type Result struct {
	// Halted is true when a terminal neuron fired; TerminalTime is the
	// execution time T of Definition 3 in that case.
	Halted       bool
	TerminalTime int64
	// Quiescent is true when the network ran out of pending events before
	// any terminal fired or the deadline was reached.
	Quiescent bool
	// TimedOut is true when the run stopped because simulated time would
	// exceed maxTime while events were still pending: the network neither
	// halted nor went quiescent, so results read from it may be
	// incomplete. Callers that treat "terminal never fired" as
	// unreachable must check this flag first — under fault injection
	// (delay jitter, dropped spikes) an exhausted deadline is a failed
	// run, not a proof of unreachability.
	TimedOut bool
	// Now is the simulation time after the run.
	Now   int64
	Stats Stats
}

// Run advances the simulation until a terminal neuron fires, the network
// goes quiescent, or simulated time would exceed maxTime. It may be called
// repeatedly; time does not rewind.
//
//lint:hotpath the outer event loop; every per-iteration allocation scales with run length
func (n *Network) Run(maxTime int64) Result {
	for len(n.times) > 0 {
		t := n.times[0]
		if t > maxTime {
			break
		}
		heap.Pop(&n.times)
		b := n.pending[t]
		delete(n.pending, t)
		n.now = t
		n.pendingEvents -= int64(len(b.deliveries) + len(b.forced))
		if t > n.lastStep+1 {
			n.stats.SilentStepsSkipped += t - n.lastStep - 1
		}
		n.lastStep = t
		if n.step(t, b) {
			return Result{Halted: true, TerminalTime: t, Now: t, Stats: n.stats}
		}
	}
	if len(n.times) == 0 {
		return Result{Quiescent: true, Now: n.now, Stats: n.stats}
	}
	n.now = maxTime
	return Result{TimedOut: true, Now: n.now, Stats: n.stats}
}

// step processes all activity at time t and returns true if a terminal fired.
//
//lint:hotpath the per-step inner loop; the nil-bridge benchmark pins it at 0 allocs/op
func (n *Network) step(t int64, b *bucket) bool {
	n.stats.Steps++
	n.gen++
	n.touched = n.touched[:0]

	touch := func(i int32) {
		if n.touchedAt[i] != n.gen {
			n.touchedAt[i] = n.gen
			n.synIn[i] = 0
			n.synFrom[i] = -1
			n.touched = append(n.touched, i)
		}
	}
	for _, d := range b.deliveries {
		touch(d.to)
		n.synIn[d.to] += d.weight
		if d.weight > 0 && n.synFrom[d.to] < 0 {
			n.synFrom[d.to] = d.from
		}
		n.stats.Deliveries++
	}
	if n.flight != nil {
		n.captureAntecedents(b)
	}

	// Determine firings: forced inputs plus threshold crossings.
	var fired []int32
	forcedSet := map[int32]bool{}
	for _, i := range b.forced {
		if !forcedSet[i] {
			if n.injector != nil && !n.injector.FilterFire(t, i, true) {
				continue // stuck-at-silent: even induced inputs are lost
			}
			forcedSet[i] = true
			fired = append(fired, i)
		}
	}
	for _, i := range n.touched {
		if forcedSet[i] {
			continue // forced spike overrides; voltage resets below
		}
		p := n.neurons[i]
		v := n.decayedVoltage(int(i), t)
		vhat := v + n.synIn[i]
		if n.injector != nil {
			vhat += n.injector.PerturbVoltage(t, i)
		}
		cross := vhat >= p.Threshold
		if n.cfg.Rule == FireStrict {
			cross = vhat > p.Threshold
		}
		if cross && n.injector != nil && !n.injector.FilterFire(t, i, false) {
			cross = false // suppressed spike: membrane keeps its charge
		}
		if cross {
			fired = append(fired, i)
		} else {
			n.voltage[i] = vhat
			n.vtime[i] = t
		}
	}

	terminal := false
	for _, i := range fired {
		var vBefore, vAfter float64
		if n.flight != nil {
			vBefore = n.decayedVoltage(int(i), t)
			vAfter = vBefore
			if n.touchedAt[i] == n.gen {
				vAfter += n.synIn[i]
			}
		}
		n.voltage[i] = n.neurons[i].Reset
		n.vtime[i] = t
		n.stats.Spikes++
		if n.firstSpike[i] < 0 {
			n.firstSpike[i] = t
			if !forcedSet[i] {
				n.firstCause[i] = n.synFrom[i]
			}
		}
		if n.cfg.Record {
			n.spikeLog[i] = append(n.spikeLog[i], t)
		}
		scheduled := 0
		for _, s := range n.out[i] {
			w, d := s.weight, s.delay
			if n.injector != nil {
				var drop bool
				if w, d, drop = n.injector.FilterDelivery(t, i, s.to, w, d); drop {
					continue
				}
				if d < 1 {
					d = 1 // hardware minimum delay
				}
			}
			nb := n.bucketAt(t + d)
			nb.deliveries = append(nb.deliveries, delivery{to: s.to, from: i, weight: w})
			if n.flight != nil {
				nb.delays = append(nb.delays, d)
			}
			scheduled++
		}
		n.pendingEvents += int64(scheduled)
		if n.flight != nil {
			n.flight.OnSpike(t, i, forcedSet[i], vBefore, vAfter, n.ants[i])
		}
	}
	if n.flight != nil {
		n.clearAntecedents()
	}
	if n.pendingEvents > n.stats.MaxQueueDepth {
		n.stats.MaxQueueDepth = n.pendingEvents
	}
	if len(n.terminals) > 0 {
		if n.terminalAll {
			terminal = true
			for _, term := range n.terminals {
				if n.firstSpike[term] < 0 {
					terminal = false
					break
				}
			}
		} else {
			for _, term := range n.terminals {
				if n.firstSpike[term] == t {
					terminal = true
					break
				}
			}
		}
	}
	if n.probe != nil {
		n.probe.OnStep(t, len(fired), len(b.deliveries), len(n.touched), int(n.pendingEvents))
	}
	return terminal
}

// decayedVoltage returns neuron i's voltage advanced to time t under its
// leak, without synaptic input.
func (n *Network) decayedVoltage(i int, t int64) float64 {
	dt := t - n.vtime[i]
	if dt <= 0 {
		return n.voltage[i]
	}
	p := n.neurons[i]
	switch {
	//lint:floateq exact sentinel: Decay is assigned only from literals 0/1 or validated input
	case p.Decay == 0:
		return n.voltage[i]
	//lint:floateq exact sentinel
	case p.Decay == 1:
		return p.Reset
	default:
		return p.Reset + (n.voltage[i]-p.Reset)*math.Pow(1-p.Decay, float64(dt))
	}
}

// SynapseInfo describes one synapse for introspection (the CONGEST
// transpiler and analysis tooling read network structure through it).
type SynapseInfo struct {
	To     int
	Weight float64
	Delay  int64
}

// Params returns neuron i's programmable parameters.
func (n *Network) Params(i int) Neuron { return n.neurons[i] }

// OutSynapses returns copies of neuron i's outgoing synapses.
func (n *Network) OutSynapses(i int) []SynapseInfo {
	out := make([]SynapseInfo, len(n.out[i]))
	for k, s := range n.out[i] {
		out[k] = SynapseInfo{To: int(s.to), Weight: s.weight, Delay: s.delay}
	}
	return out
}

// InducedSpikes returns the currently scheduled induced (forced) spikes
// as a map from time to neuron indices. It reflects only spikes not yet
// consumed by Run.
func (n *Network) InducedSpikes() map[int64][]int {
	out := make(map[int64][]int)
	//lint:deterministic builds a keyed map from a map; per-key, order-independent
	for t, b := range n.pending {
		for _, i := range b.forced {
			out[t] = append(out[t], int(i))
		}
	}
	return out
}

// Rule returns the configured fire rule.
func (n *Network) Rule() FireRule { return n.cfg.Rule }

// Recording reports whether spike trains are being recorded.
func (n *Network) Recording() bool { return n.cfg.Record }

// Terminals returns the configured terminal neurons and whether the
// halting rule requires all of them to fire.
func (n *Network) Terminals() ([]int, bool) {
	out := make([]int, len(n.terminals))
	for i, t := range n.terminals {
		out[i] = int(t)
	}
	return out, n.terminalAll
}

// FirstSpike returns the time neuron i first fired, or -1 if it never has.
func (n *Network) FirstSpike(i int) int64 { return n.firstSpike[i] }

// FirstCause returns the presynaptic neuron whose positive-weight delivery
// coincided with neuron i's first spike, or -1 (e.g. for induced spikes).
// This realizes the predecessor "latching" of Section 3 for path recovery.
func (n *Network) FirstCause(i int) int { return int(n.firstCause[i]) }

// Spikes returns the full spike train of neuron i. It panics unless the
// network was built with Config.Record.
func (n *Network) Spikes(i int) []int64 {
	if !n.cfg.Record {
		panic("snn: Spikes requires Config.Record")
	}
	return n.spikeLog[i]
}

// FiredAt reports whether neuron i fired at time t (requires Config.Record).
func (n *Network) FiredAt(i int, t int64) bool {
	for _, s := range n.Spikes(i) {
		if s == t {
			return true
		}
		if s > t {
			return false
		}
	}
	return false
}

// Voltage returns neuron i's membrane voltage at the current sim time.
func (n *Network) Voltage(i int) float64 { return n.decayedVoltage(i, n.now) }

// Now returns the current simulation time.
func (n *Network) Now() int64 { return n.now }

// TotalStats returns the accumulated cost counters.
func (n *Network) TotalStats() Stats { return n.stats }

// Reset clears all dynamic state (voltages, pending events, spike history,
// statistics) while keeping neurons and synapses, so the same hardware
// network can run a new computation — the embed/unembed workflow of
// Section 4.4.
func (n *Network) Reset() {
	for i := range n.voltage {
		n.voltage[i] = n.neurons[i].Reset
		n.vtime[i] = 0
		n.firstSpike[i] = -1
		n.firstCause[i] = -1
		n.touchedAt[i] = -1
		if n.cfg.Record {
			n.spikeLog[i] = nil
		}
	}
	n.pending = make(map[int64]*bucket)
	n.times = n.times[:0]
	n.now = 0
	n.gen = 0
	n.stats = Stats{}
	n.pendingEvents = 0
	n.lastStep = -1
}
