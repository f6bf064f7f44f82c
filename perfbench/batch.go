package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/classic"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/snn"
)

// minTracedOps is the fewest operations per phase of a traced run, which
// compares medians only; an untraced run times at least minTailSamples,
// so that its tail is defined.
const minTracedOps = 5

// batchOp is one timed operation of a batch workload, its layer spans
// and the engine statistics of its run.
type batchOp struct {
	total, compile, run span
	stats               snn.Stats
	neurons             int       // compiled network size, where the op compiles one
	gc                  gcReading // the runtime's allocation and GC totals over total; traced ops only
}

// runPhase calls op until the phase has lasted seconds (verification
// included) and at least minOps operations ran. Each operation starts
// from a collected heap, so it pays for the collections its own
// allocation causes and not for the garbage of the operation or the
// verification before it.
func runPhase(seconds float64, minOps int, op func() (batchOp, error)) ([]batchOp, error) {
	var ops []batchOp
	start := time.Now()
	for len(ops) < minOps || time.Since(start).Seconds() < seconds {
		runtime.GC()
		b, err := op()
		if err != nil {
			return nil, err
		}
		ops = append(ops, b)
	}
	return ops, nil
}

// gcAround starts reading the runtime's allocation and GC totals for one
// traced operation; the returned func ends the reading. Both readings lie
// outside the operation's timed span (ReadMemStats stops the world) and
// after runPhase's forced collection, and verification comes after the
// second, so the figures are the operation's own. An untraced run reads
// nothing.
func gcAround(tr *tracer) func() gcReading {
	if tr == nil {
		return func() gcReading { return gcReading{} }
	}
	g0 := readGC()
	return func() gcReading { return readGC().sub(g0) }
}

// opsGC sums the traced ops' runtime readings.
func opsGC(ops []batchOp) gcReading {
	var t gcReading
	for _, b := range ops {
		t = t.add(b.gc)
	}
	return t
}

func opMs(ops []batchOp, pick func(batchOp) span) []float64 {
	xs := make([]float64, len(ops))
	for i, b := range ops {
		xs[i] = pick(b).ms()
	}
	return xs
}

func medianOf(ops []batchOp, f func(batchOp) float64) float64 {
	xs := make([]float64, len(ops))
	for i, b := range ops {
		xs[i] = f(b)
	}
	return median(xs)
}

// batchEndToEnd fills the end-to-end metrics of a batch workload from
// its untraced phase: m input edges per operation.
func batchEndToEnd(out *runOutput, ops []batchOp, m int) {
	vals, v := out.vals, &out.check
	lat := opMs(ops, func(b batchOp) span { return b.total })
	busy := sum(lat) / 1000
	t := tail(lat)
	out.opMs = lat
	vals["op_p50_ms"] = median(lat)
	vals["edges_per_s"] = ratio(float64(m*len(ops)), busy)
	vals["ok_ratio"] = ratio(float64(v.attempted-v.failed), float64(v.attempted))
	out.tail = t
}

// notEntered sets to 0 every per-layer metric under the given prefixes:
// layers this workload never calls.
func notEntered(vals map[string]float64, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				vals[d.Name] = 0
			}
		}
	}
}

// layerReport renders per-layer self times against the operation time
// they should sum to.
func layerReport(workload string, self map[string]float64, order []string, opMs, untracedMs float64) []string {
	var b strings.Builder
	total := 0.0
	for _, name := range order {
		fmt.Fprintf(&b, " %s=%.3f", name, self[name])
		total += self[name]
	}
	return []string{
		fmt.Sprintf("trace %s: median self ms per op:%s", workload, b.String()),
		fmt.Sprintf("trace %s: self times sum to %.3f ms; traced op p50 %.3f ms; untraced op p50 %.3f ms; tracing overhead %+.3f ms",
			workload, total, opMs, untracedMs, opMs-untracedMs),
	}
}

// ssspSetups is how many times sssp_batch generates its graph in set-up;
// setup_s is the fastest, which a slow repetition (page faults on a
// fresh heap, a neighbour's burst on a shared host) cannot move.
const ssspSetups = 5

// runSSSPBatch is the sssp_batch workload: each operation compiles the
// Section 3 relay network (core.BuildSSSP) and runs it from the next
// seeded source, checked against classic.Dijkstra.
func runSSSPBatch(sz size, o runOpts) (*runOutput, error) {
	rng := rand.New(rand.NewSource(o.seed))
	graphSeed := rng.Int63()
	out := &runOutput{vals: map[string]float64{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	var g *graph.Graph
	var gen []span
	for i := 0; i < ssspSetups; i++ {
		g = nil
		runtime.GC()
		gen = append(gen, tr.call(-1, -1, "graph.gen", func() {
			g = graph.RandomGnm(sz.N, sz.M, graph.Uniform(sz.U), graphSeed, true)
		}))
	}
	setup := make([]float64, len(gen))
	for i, s := range gen {
		setup[i] = s.ms() / 1000
	}
	out.vals["setup_s"] = minOf(setup)
	runtime.GC()

	opIndex := 0
	op := func(tr *tracer) (batchOp, error) {
		i := opIndex
		opIndex++
		src := rng.Intn(sz.N)
		var sn *core.SSSPNetwork
		var res *core.SSSPResult
		var err error
		gcDone := gcAround(tr)
		root := tr.begin(i, -1, "op")
		c := tr.call(i, root.id, "core.compile", func() { sn = core.BuildSSSP(g) })
		r := tr.call(i, root.id, "snn.run", func() { res, err = sn.Run(src, -1) })
		b := batchOp{total: tr.end(root), compile: c, run: r, gc: gcDone()}
		if err != nil {
			return b, fmt.Errorf("op %d: %w", i, err)
		}
		b.stats = res.Stats
		out.snn.add(res.Stats)
		out.check.check(fmt.Sprintf("op %d src %d", i, src), res.Dist, classic.Dijkstra(g, src).Dist)
		return b, nil
	}

	untracedSeconds, minPlain := o.seconds, minTailSamples
	if o.trace {
		untracedSeconds, minPlain = o.seconds/2, minTracedOps
	}
	heap := startHeapSampler(0)
	plain, err := runPhase(untracedSeconds, minPlain, func() (batchOp, error) { return op(nil) })
	out.vals["peak_heap_mb"] = heap.Stop()[0]
	if err != nil {
		return nil, err
	}
	batchEndToEnd(out, plain, sz.M)
	if !o.trace {
		return out, nil
	}

	traced, err := runPhase(o.seconds/2, minTracedOps, func() (batchOp, error) { return op(tr) })
	if err != nil {
		return nil, err
	}
	v := out.vals
	m := float64(sz.M)
	v["graph.gen_ms"] = median(opMsSpans(gen))
	v["graph.gen_ns_per_edge"] = v["graph.gen_ms"] * 1e6 / m
	v["graph.gen_alloc_b_per_edge"] = medianBytes(gen) / m
	v["core.compile_ms"] = median(opMs(traced, func(b batchOp) span { return b.compile }))
	v["core.compile_ns_per_edge"] = v["core.compile_ms"] * 1e6 / m
	v["core.compile_alloc_b_per_edge"] = medianOf(traced, func(b batchOp) float64 { return float64(b.compile.Bytes) }) / m
	v["core.compile_allocs_per_edge"] = medianOf(traced, func(b batchOp) float64 { return float64(b.compile.Objects) }) / m
	snnRunMetrics(v, traced)
	out.snn.metrics(v)
	runtimeMetrics(v, opsGC(traced), len(traced))
	notEntered(v, "core.khop", "circuit.", "service.", "http.", "loadgen.")
	tracedSpans(out, "sssp_batch", tr, traced, v["op_p50_ms"], []string{"core.compile", "snn.run"})
	return out, nil
}

// snnRunMetrics fills the snn.run_* per-layer metrics from traced ops.
func snnRunMetrics(v map[string]float64, ops []batchOp) {
	v["snn.run_ms"] = median(opMs(ops, func(b batchOp) span { return b.run }))
	v["snn.run_ns_per_delivery"] = medianOf(ops, func(b batchOp) float64 {
		return ratio(b.run.DurUs*1000, float64(b.stats.Deliveries))
	})
	v["snn.run_alloc_b_per_delivery"] = medianOf(ops, func(b batchOp) float64 {
		return ratio(float64(b.run.Bytes), float64(b.stats.Deliveries))
	})
	v["snn.deliveries_per_step"] = medianOf(ops, func(b batchOp) float64 {
		return ratio(float64(b.stats.Deliveries), float64(b.stats.Steps))
	})
}

// tracedSpans finishes a traced batch run: overhead, unattributed time
// and the self-time report, from the traced ops' spans.
func tracedSpans(out *runOutput, workload string, tr *tracer, traced []batchOp, untracedP50 float64, layers []string) {
	out.spans = tr.spans
	tracedP50 := median(opMs(traced, func(b batchOp) span { return b.total }))
	self := map[string]float64{}
	for name, xs := range selfMs(tr.spans) {
		self[name] = median(xs)
	}
	out.vals["trace.overhead_ms"] = tracedP50 - untracedP50
	out.vals["trace.unattributed_ms"] = self["op"]
	self["unattributed"] = self["op"]
	out.report = layerReport(workload, self, append(layers, "unattributed"), tracedP50, untracedP50)
}

func opMsSpans(spans []span) []float64 {
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = s.ms()
	}
	return xs
}

func medianBytes(spans []span) float64 {
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = float64(s.Bytes)
	}
	return median(xs)
}

// khop_circuit's set-up generates the graphs of its first khopPool
// operations, khopSetups times over; setup_s is the fastest.
const (
	khopPool   = 24
	khopSetups = 10
)

// khopInput is one operation's graph and source.
type khopInput struct {
	g   *graph.Graph
	src int
	gen span
}

// runKHopCircuit is the khop_circuit workload: each operation compiles
// the Section 4.1 k-hop TTL algorithm to threshold gates
// (core.CompileKHopTTL) for a fresh graph and runs it, checked against
// classic.BellmanFordKHop. Operations share nothing.
func runKHopCircuit(sz size, o runOpts) (*runOutput, error) {
	rng := rand.New(rand.NewSource(o.seed))
	out := &runOutput{vals: map[string]float64{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	seeds := make([]int64, khopPool)
	srcs := make([]int, khopPool)
	for i := range seeds {
		seeds[i] = rng.Int63()
		srcs[i] = rng.Intn(sz.N)
	}
	// Graphs beyond the pool are generated between operations, outside
	// the timed region; their seeds continue the same sequence.
	genInput := func(tr *tracer, i int) khopInput {
		seed, src := int64(0), 0
		if i < len(seeds) {
			seed, src = seeds[i], srcs[i]
		} else {
			seed, src = rng.Int63(), rng.Intn(sz.N)
		}
		in := khopInput{src: src}
		in.gen = tr.call(i, -1, "graph.gen", func() {
			in.g = graph.RandomGnm(sz.N, sz.M, graph.Uniform(sz.U), seed, true)
		})
		return in
	}
	var pool []khopInput
	var setup []float64
	for s := 0; s < khopSetups; s++ {
		pool = pool[:0]
		runtime.GC()
		start := time.Now()
		for i := 0; i < khopPool; i++ {
			pool = append(pool, genInput(tr, i))
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	out.vals["setup_s"] = minOf(setup)
	gen := make([]span, len(pool))
	for i, in := range pool {
		gen[i] = in.gen
	}
	runtime.GC()

	var neurons, synapses []float64
	opIndex := 0
	op := func(tr *tracer) (batchOp, error) {
		i := opIndex
		opIndex++
		var in khopInput
		if i < len(pool) {
			in = pool[i]
			pool[i] = khopInput{} // each graph serves one operation
		} else {
			in = genInput(nil, i)
		}
		var ct *core.CompiledTTL
		var dist []int64
		var stats snn.Stats
		gcDone := gcAround(tr)
		root := tr.begin(i, -1, "op")
		c := tr.call(i, root.id, "circuit.compile", func() { ct = core.CompileKHopTTL(in.g, in.src, sz.K) })
		r := tr.call(i, root.id, "snn.run", func() { dist, stats = ct.Run() })
		b := batchOp{total: tr.end(root), compile: c, run: r, gc: gcDone(), stats: stats, neurons: ct.Net.N()}
		if len(neurons) < fingerprintOps {
			neurons = append(neurons, float64(ct.Net.N()))
			synapses = append(synapses, float64(ct.Net.Synapses()))
		}
		out.snn.add(stats)
		out.check.check(fmt.Sprintf("op %d src %d", i, in.src), dist, classic.BellmanFordKHop(in.g, in.src, sz.K, false).Dist)
		return b, nil
	}

	untracedSeconds, minPlain := o.seconds, minTailSamples
	if o.trace {
		untracedSeconds, minPlain = o.seconds/2, minTracedOps
	}
	heap := startHeapSampler(0)
	plain, err := runPhase(untracedSeconds, minPlain, func() (batchOp, error) { return op(nil) })
	out.vals["peak_heap_mb"] = heap.Stop()[0]
	if err != nil {
		return nil, err
	}
	batchEndToEnd(out, plain, sz.M)
	if !o.trace {
		return out, nil
	}

	traced, err := runPhase(o.seconds/2, minTracedOps, func() (batchOp, error) { return op(tr) })
	if err != nil {
		return nil, err
	}
	v := out.vals
	m := float64(sz.M)
	v["graph.gen_ms"] = median(opMsSpans(gen))
	v["graph.gen_ns_per_edge"] = v["graph.gen_ms"] * 1e6 / m
	v["graph.gen_alloc_b_per_edge"] = medianBytes(gen) / m
	v["circuit.compile_ms"] = median(opMs(traced, func(b batchOp) span { return b.compile }))
	v["circuit.neurons"] = mean(neurons)
	v["circuit.synapses"] = mean(synapses)
	v["circuit.compile_ns_per_neuron"] = medianOf(traced, func(b batchOp) float64 {
		return ratio(b.compile.DurUs*1000, float64(b.neurons))
	})
	v["circuit.compile_alloc_b_per_neuron"] = medianOf(traced, func(b batchOp) float64 {
		return ratio(float64(b.compile.Bytes), float64(b.neurons))
	})
	snnRunMetrics(v, traced)
	out.snn.metrics(v)
	runtimeMetrics(v, opsGC(traced), len(traced))
	notEntered(v, "core.", "service.", "http.", "loadgen.")
	tracedSpans(out, "khop_circuit", tr, traced, v["op_p50_ms"], []string{"circuit.compile", "snn.run"})
	return out, nil
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
