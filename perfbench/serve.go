package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/snn"
)

// serve_mix's traffic and its measurement.
const (
	// refRate is the offered rate, in queries per second, of the
	// open-loop phase that op_tail_ms and loadgen.* are read from.
	refRate = 100
	// limitMs is the latency limit: a query slower than it misses
	// ok_ratio.
	limitMs     = 100
	serveSetups = 10 // set-ups per run; setup_s is the fastest
	warmQueries = 32 // queries each set-up serves before it counts as done
	// satWindows splits each saturated phase into this many equal spans;
	// peak_heap_mb is the median of their peaks, so one burst of
	// overlapping allocation moves one window, not the figure.
	satWindows = 7
	// serveRounds is how many times an untraced run alternates its
	// sequential and saturated phases.
	serveRounds = 5
	// replays is how many queries of the traced phase are replayed one
	// at a time through each layer to attribute their time.
	replays = 100
)

// Each phase of a run draws its queries from a stream of its own, so the
// queries of one phase do not depend on how many an earlier one sent.
const (
	phaseWarm = iota
	phaseSeq
	phaseSat
	phaseRef
	phaseTraced
	phases // phase ids per round of the sequential and saturated phases
)

// arrival is one scheduled query: when it is due, relative to the start
// of its phase, and what it asks.
type arrival struct {
	due time.Duration
	q   service.Query
}

// mix draws the queries of serve_mix from one seeded stream. Its traffic
// is the chaos soak's (internal/service/chaos.go): sssp and khop in turn,
// every query on a graph seed of its own.
type mix struct {
	sz   size
	rng  *rand.Rand
	sent int
}

func newMix(sz size, seed int64, phase int) *mix {
	return &mix{sz: sz, rng: rand.New(rand.NewSource(seed + int64(phase)*1_000_003))}
}

var mixWorkloads = []string{"sssp", "khop"}

func (m *mix) query() service.Query {
	q := service.Query{Workload: mixWorkloads[m.sent%len(mixWorkloads)], N: m.sz.N, M: m.sz.M, U: m.sz.U, K: m.sz.K}
	m.sent++
	q.GraphSeed = m.rng.Int63()
	q.Src = m.rng.Intn(m.sz.N)
	return q
}

// schedule draws Poisson arrivals at rate for seconds, and at least
// atLeast of them.
func (m *mix) schedule(rate, seconds float64, atLeast int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += m.rng.ExpFloat64() / rate
		if t >= seconds && len(out) >= atLeast {
			return out
		}
		out = append(out, arrival{due: time.Duration(t * float64(time.Second)), q: m.query()})
	}
}

// server is the service under test behind a loopback HTTP listener, and
// the client connections the load generator sends on.
type server struct {
	svc    *service.Service
	srv    *http.Server
	base   string
	client *http.Client
	conns  int
	served chan error
}

func startServer(seed int64) (*server, error) {
	procs := runtime.NumCPU()
	svc := service.New(metrics.NewRegistry(), service.Config{Workers: procs, Seed: seed})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:  svc,
		srv:  &http.Server{Handler: svc.Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     procs,
			MaxIdleConnsPerHost: procs,
			DisableCompression:  true,
		}},
		conns:  procs,
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// Close stops the listener and waits for the serving goroutine.
func (s *server) Close() {
	s.client.CloseIdleConnections()
	s.srv.Close() // closes the listener; Serve then returns ErrServerClosed
	<-s.served
}

// get sends q and reads the whole response body.
func (s *server) get(q service.Query) (int, []byte, error) {
	url := fmt.Sprintf("%s/query/%s?n=%d&m=%d&u=%d&seed=%d&src=%d&k=%d",
		s.base, q.Workload, q.N, q.M, q.U, q.GraphSeed, q.Src, q.K)
	resp, err := s.client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// answer is one HTTP response reduced, as soon as it is read, to what
// verification needs. Keeping thousands of bodies until a phase ends
// would grow the heap the phase measures.
type answer struct {
	status int
	mode   string
	dist   distSum
	bytes  int
	err    error // transport or decoding error, or the body of a non-200
}

func readAnswer(status int, body []byte, err error) answer {
	a := answer{status: status, bytes: len(body), err: err}
	if err != nil {
		return a
	}
	if status != http.StatusOK {
		a.err = fmt.Errorf("HTTP %d: %s", status, strings.TrimSpace(string(body)))
		return a
	}
	var resp service.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		a.err = fmt.Errorf("decoding response: %w", err)
		return a
	}
	a.mode, a.dist = resp.Mode, sumDist(resp.Dist)
	return a
}

// distSum stands for a distance vector: its length and a hash of its
// entries.
type distSum struct {
	n    int
	hash uint64
}

func sumDist(d []int64) distSum {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range d {
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	return distSum{n: len(d), hash: h.Sum64()}
}

// sample is one sent query as the load generator saw it. Times are since
// the start of the phase.
type sample struct {
	due, sent, done time.Duration
	// idle is true when the sender waited for the due time; then sent-due
	// is the generator's own timer lateness. A sender still busy with an
	// earlier query at the due time sends at once: that wait belongs to
	// the service and shows in latency, not in lateness.
	idle bool
	ans  answer
}

func (s sample) latencyMs() float64 { return ms(s.done - s.due) }
func (s sample) lateMs() float64    { return ms(s.sent - s.due) }

// drive sends the arrivals open-loop on the server's connections: each
// sender takes the next due arrival, waits for its due time if it is
// early, and sends. Latency runs from the due time, so a stall delays
// the queries behind it as it would delay independent users.
func (s *server) drive(arrivals []arrival) []sample {
	samples := make([]sample, len(arrivals))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < s.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(arrivals); i = int(next.Add(1) - 1) {
				a, sm := arrivals[i], &samples[i]
				sm.due = a.due
				if a.due > time.Since(start) {
					sm.idle = true
					sleepUntil(start, a.due)
				}
				sm.sent = time.Since(start)
				status, body, err := s.get(a.q)
				sm.done = time.Since(start)
				sm.ans = readAnswer(status, body, err)
			}
		}()
	}
	wg.Wait()
	return samples
}

// loop sends queries drawn from m back to back on conns connections
// until seconds have passed: each connection sends its next query as
// soon as its last one is answered (a closed loop). Latency runs from
// the send, which is also the due time. With tr set, each round trip is
// recorded as a span.
func (s *server) loop(m *mix, conns int, seconds float64, tr *tracer) ([]arrival, []sample) {
	var mu sync.Mutex // guards m, arr, samples and tr
	var arr []arrival
	var samples []sample
	var wg sync.WaitGroup
	end := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if time.Since(start) >= end {
					mu.Unlock()
					return
				}
				i, q := len(arr), m.query()
				arr = append(arr, arrival{q: q})
				samples = append(samples, sample{})
				var o openSpan
				if tr != nil {
					o = tr.begin(i, -1, "http.get")
				}
				mu.Unlock()
				sent := time.Since(start)
				status, body, err := s.get(q)
				done := time.Since(start)
				sm := sample{due: sent, sent: sent, done: done, ans: readAnswer(status, body, err)}
				mu.Lock()
				if tr != nil {
					tr.end(o)
				}
				arr[i].due, samples[i] = sent, sm
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return arr, samples
}

// timerSlack is how early sleepUntil stops sleeping: Go's timers wake up
// to a millisecond late on Linux, which at a few milliseconds per query
// would pass for service latency.
const timerSlack = time.Millisecond

// sleepUntil returns at start+due: it sleeps until timerSlack before,
// then yields the processor until the due time, so other goroutines keep
// running and the wake-up itself is late only when the processors are
// busy.
func sleepUntil(start time.Time, due time.Duration) {
	if d := due - time.Since(start) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Since(start) < due {
		runtime.Gosched()
	}
}

// outcome is the verified result of one phase.
type outcome struct {
	samples   []sample
	ok        int // verified-correct answers in a guaranteed mode
	okWithin  int // of those, within the latency limit
	exact     int
	served    int // 200 responses
	lat, late []float64
	byType    map[string][]float64 // latency per query workload
}

// add pools p into o.
func (o *outcome) add(p outcome) {
	o.samples = append(o.samples, p.samples...)
	o.ok += p.ok
	o.okWithin += p.okWithin
	o.exact += p.exact
	o.served += p.served
	o.lat = append(o.lat, p.lat...)
	o.late = append(o.late, p.late...)
	if o.byType == nil {
		o.byType = map[string][]float64{}
	}
	for w, xs := range p.byType {
		o.byType[w] = append(o.byType[w], xs...)
	}
}

// verify checks every answer of a phase against service.Reference.
func verify(v *verifier, phase string, arrivals []arrival, samples []sample, limitMs float64) outcome {
	o := outcome{samples: samples, byType: map[string][]float64{}}
	want := references(arrivals)
	for i, sm := range samples {
		q := arrivals[i].q
		what := fmt.Sprintf("%s query %d %s seed %d src %d", phase, i, q.Workload, q.GraphSeed, q.Src)
		o.lat = append(o.lat, sm.latencyMs())
		o.byType[q.Workload] = append(o.byType[q.Workload], sm.latencyMs())
		if sm.idle {
			o.late = append(o.late, sm.lateMs())
		}
		mode, ok := checkResponse(v, what, sm.ans, want[i])
		if ok {
			o.ok++
			if sm.latencyMs() <= limitMs {
				o.okWithin++
			}
		}
		if sm.ans.status == http.StatusOK {
			o.served++
			if mode == service.ModeExact {
				o.exact++
			}
		}
	}
	return o
}

// references sums service.Reference for every arrival, on one goroutine
// per CPU: verification runs between phases, never during one.
func references(arrivals []arrival) []distSum {
	want := make([]distSum, len(arrivals))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(arrivals); i = int(next.Add(1) - 1) {
				want[i] = sumDist(service.Reference(arrivals[i].q))
			}
		}()
	}
	wg.Wait()
	return want
}

// checkResponse verifies one HTTP answer: a 200 in a guaranteed mode
// whose distances equal want. Anything else is a failed query; a
// guaranteed answer with wrong distances makes the run incorrect. It
// returns the mode the service answered in.
func checkResponse(v *verifier, what string, a answer, want distSum) (string, bool) {
	if a.err != nil {
		v.fail(what, a.err)
		return "", false
	}
	if !service.Guaranteed(a.mode) {
		v.fail(what, fmt.Errorf("served in mode %q, which does not guarantee exact distances", a.mode))
		return a.mode, false
	}
	return a.mode, v.checkSum(what, a.dist, want)
}

// typeMedian is the latency of a typical query of the mix: the mean of
// each query type's median. sssp and khop queries take different times
// and come in equal numbers, so the median of all of them falls in the
// sparse gap between two clusters, where a few queries move it far.
func typeMedian(o outcome) float64 {
	var xs []float64
	for _, w := range mixWorkloads {
		xs = append(xs, median(o.byType[w]))
	}
	return mean(xs)
}

// runServeMix is the serve_mix workload.
func runServeMix(sz size, o runOpts) (*runOutput, error) {
	out := &runOutput{vals: map[string]float64{}}

	// Set-up: start the service and its listener, then warm it with the
	// first warmQueries queries of the mix, all due at once on every
	// connection. Repeated serveSetups times; the last server stays up.
	warm := make([]arrival, warmQueries)
	wm := newMix(sz, o.seed, phaseWarm)
	for i := range warm {
		warm[i].q = wm.query()
	}
	var srv *server
	var setup []float64
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			srv.Close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if srv, err = startServer(o.seed); err != nil {
			return nil, err
		}
		samples := srv.drive(warm)
		setup = append(setup, time.Since(start).Seconds())
		verify(&out.check, fmt.Sprintf("warm-up %d", i), warm, samples, limitMs)
	}
	defer srv.Close()
	out.vals["setup_s"] = minOf(setup)

	// op_p50_ms comes from one connection, each query sent as soon as
	// the last is answered, so no query waits for another and no timer
	// wakes the process between them; edges_per_s and peak_heap_mb from
	// every connection kept busy the same way. The two alternate in
	// rounds, so each spans the whole run and a slow minute of the host
	// moves both a little rather than one a lot.
	rounds, seqShare, satShare, refShare := serveRounds, 0.4, 0.4, 0.2
	if o.trace {
		rounds, seqShare = 1, 0.3
	}
	seqSeconds := seqShare * o.seconds / float64(rounds)
	satSeconds := satShare * o.seconds / float64(rounds)
	window := satSeconds / satWindows
	var seq, sat outcome
	var seqArr []arrival
	var peaks []float64
	for r := 0; r < rounds; r++ {
		runtime.GC()
		arr, samples := srv.loop(newMix(sz, o.seed, phaseSeq+phases*r), 1, seqSeconds, nil)
		seq.add(verify(&out.check, fmt.Sprintf("sequential %d", r), arr, samples, limitMs))
		seqArr = append(seqArr, arr...)
		if o.trace {
			break
		}
		runtime.GC()
		heap := startHeapSampler(time.Duration(window * float64(time.Second)))
		arr, samples = srv.loop(newMix(sz, o.seed, phaseSat+phases*r), srv.conns, satSeconds, nil)
		p := heap.Stop()
		peaks = append(peaks, p[:min(len(p), satWindows)]...)
		sat.add(verify(&out.check, fmt.Sprintf("saturated %d", r), arr, samples, limitMs))
	}
	out.vals["op_p50_ms"] = typeMedian(seq)
	out.opMs = seq.lat
	out.report = append(out.report, fmt.Sprintf("setup: %.4f s fastest of %.4f", minOf(setup), setup),
		fmt.Sprintf("sequential: %d queries, median sssp %.3f ms, khop %.3f ms",
			len(seq.lat), median(seq.byType["sssp"]), median(seq.byType["khop"])))
	if err := fingerprintQueries(&out.snn, seqArr); err != nil {
		return nil, err
	}
	if o.trace {
		return out, traceServeMix(out, sz, srv, o, refShare*o.seconds)
	}
	// With every connection busy, the service answers conns queries per
	// typical latency. Read from median latencies, a stall of the host
	// that holds up a few queries moves the figure as little as it moves
	// op_p50_ms; the completion count, printed below, moves with every
	// stalled millisecond.
	satMs := typeMedian(sat)
	out.vals["edges_per_s"] = ratio(float64(srv.conns*sz.M)*1000, satMs)
	out.vals["peak_heap_mb"] = median(peaks)
	out.report = append(out.report, fmt.Sprintf("saturated: %d queries on %d connections, %.1f qps completed, median sssp %.3f ms, khop %.3f ms",
		len(sat.lat), srv.conns, float64(len(sat.lat))/(satSeconds*float64(rounds)), median(sat.byType["sssp"]), median(sat.byType["khop"])))

	// op_tail_ms: open loop at the reference rate.
	ref := openLoop(out, sz, srv, o.seed, refShare*o.seconds)
	out.tail = tail(ref.lat)
	out.report = append(out.report, fmt.Sprintf("open loop at %d qps: %d queries, generator late p50 %.3f ms, tail %.3f ms",
		refRate, len(ref.lat), median(ref.late), tail(ref.late).Value))

	within, sent := 0, 0
	for _, p := range []outcome{seq, sat, ref} {
		within += p.okWithin
		sent += len(p.samples)
	}
	out.vals["ok_ratio"] = ratio(float64(within), float64(sent))
	return out, nil
}

// openLoop runs the seeded Poisson schedule at refRate for seconds and
// verifies it.
func openLoop(out *runOutput, sz size, srv *server, seed int64, seconds float64) outcome {
	arr := newMix(sz, seed, phaseRef).schedule(refRate, seconds, minTailSamples)
	runtime.GC()
	return verify(&out.check, "open loop", arr, srv.drive(arr), limitMs)
}

// fingerprintQueries runs the first fingerprintOps sssp queries of the
// schedule standalone through core.BuildSSSP and Run, for their engine
// counters: the service does not expose them.
func fingerprintQueries(c *snnCounters, arr []arrival) error {
	for _, a := range arr {
		if c.Ops >= fingerprintOps {
			return nil
		}
		if a.q.Workload != "sssp" {
			continue
		}
		g := graph.RandomGnm(a.q.N, a.q.M, graph.Uniform(a.q.U), a.q.GraphSeed, true)
		res, err := core.BuildSSSP(g).Run(a.q.Src, -1)
		if err != nil {
			return fmt.Errorf("fingerprint query: %w", err)
		}
		c.add(res.Stats)
	}
	if c.Ops < fingerprintOps {
		return fmt.Errorf("schedule has %d sssp queries, fingerprint needs %d", c.Ops, fingerprintOps)
	}
	return nil
}

// decomposed is one query replayed one layer at a time.
type decomposed struct {
	q                           service.Query
	roundtrip, exec, gen, solve span // solve: core.khop, or core.compile + snn.run
	compile, run                span
	stats                       snn.Stats
	broadcasts                  int64
	bytes                       int
}

// traceServeMix is the traced half of serve_mix: the sequential phase
// again with a span around every round trip, the open-loop phase for the
// generator's figures, then replays queries of the traced phase one at a
// time through HTTP, Service.Execute and the standalone layer calls, so
// each layer's self time is measured on the same inputs.
func traceServeMix(out *runOutput, sz size, srv *server, o runOpts, refSeconds float64) error {
	tr := newTracer()
	runtime.GC()
	gc0 := readGC()
	arr, samples := srv.loop(newMix(sz, o.seed, phaseTraced), 1, 0.3*o.seconds, tr)
	gc1 := readGC()
	// runtime.* covers both ends of each query, client and server, as
	// the process serves them; verification comes after the reading.
	traced := verify(&out.check, "traced", arr, samples, limitMs)
	v := out.vals
	runtimeMetrics(v, gc1.sub(gc0), len(arr))

	ref := openLoop(out, sz, srv, o.seed, refSeconds)
	if err := serviceCounters(v, srv.svc); err != nil {
		return err
	}
	v["service.exact_ratio"] = ratio(float64(traced.exact+ref.exact), float64(traced.served+ref.served))
	v["loadgen.late_p50_ms"] = median(ref.late)
	v["loadgen.late_tail_ms"] = tail(ref.late).Value
	v["loadgen.sent"] = float64(len(ref.samples))
	v["loadgen.failed"] = float64(len(ref.samples) - ref.ok)

	base := len(arr)
	var ds []decomposed
	for i := 0; i < replays && i < len(arr); i++ {
		d, err := decompose(out, tr, srv, base+i, arr[i].q)
		if err != nil {
			return err
		}
		ds = append(ds, d)
	}
	out.spans = tr.spans

	pick := func(keep func(decomposed) bool, f func(decomposed) float64) float64 {
		var xs []float64
		for _, d := range ds {
			if keep(d) {
				xs = append(xs, f(d))
			}
		}
		return median(xs)
	}
	all := func(decomposed) bool { return true }
	sssp := func(d decomposed) bool { return d.q.Workload == "sssp" }
	khop := func(d decomposed) bool { return d.q.Workload == "khop" }
	// Whole-query times are read as op_p50_ms is, per query type, so
	// trace.unattributed_ms compares like with like.
	perType := func(f func(decomposed) float64) float64 { return (pick(sssp, f) + pick(khop, f)) / 2 }
	mEdges := float64(sz.M)
	v["http.roundtrip_ms"] = perType(func(d decomposed) float64 { return d.roundtrip.ms() })
	v["http.self_ms"] = pick(all, func(d decomposed) float64 { return d.roundtrip.ms() - d.exec.ms() })
	v["http.resp_bytes"] = pick(all, func(d decomposed) float64 { return float64(d.bytes) })
	v["service.exec_ms"] = perType(func(d decomposed) float64 { return d.exec.ms() })
	v["service.self_ms"] = pick(all, func(d decomposed) float64 { return d.exec.ms() - d.gen.ms() - d.solve.ms() })
	v["graph.gen_ms"] = pick(all, func(d decomposed) float64 { return d.gen.ms() })
	v["graph.gen_ns_per_edge"] = v["graph.gen_ms"] * 1e6 / mEdges
	v["graph.gen_alloc_b_per_edge"] = pick(all, func(d decomposed) float64 { return float64(d.gen.Bytes) }) / mEdges
	v["core.compile_ms"] = pick(sssp, func(d decomposed) float64 { return d.compile.ms() })
	v["core.compile_ns_per_edge"] = v["core.compile_ms"] * 1e6 / mEdges
	v["core.compile_alloc_b_per_edge"] = pick(sssp, func(d decomposed) float64 { return float64(d.compile.Bytes) }) / mEdges
	v["core.compile_allocs_per_edge"] = pick(sssp, func(d decomposed) float64 { return float64(d.compile.Objects) }) / mEdges
	v["core.khop_ms"] = pick(khop, func(d decomposed) float64 { return d.solve.ms() })
	v["core.khop_ns_per_edge"] = v["core.khop_ms"] * 1e6 / mEdges
	v["core.khop_broadcasts"] = pick(khop, func(d decomposed) float64 { return float64(d.broadcasts) })
	var runs []batchOp
	for _, d := range ds {
		if sssp(d) {
			runs = append(runs, batchOp{run: d.run, stats: d.stats})
		}
	}
	snnRunMetrics(v, runs)
	out.snn.metrics(v)
	notEntered(v, "circuit.")

	tracedP50 := typeMedian(traced)
	v["trace.overhead_ms"] = tracedP50 - v["op_p50_ms"]
	// Time no layer span covers: the sequential query's latency beyond an
	// unloaded replay's round trip.
	v["trace.unattributed_ms"] = v["op_p50_ms"] - v["http.roundtrip_ms"]
	self := map[string]float64{
		"http.self":    v["http.self_ms"],
		"service.self": v["service.self_ms"],
		"graph.gen":    v["graph.gen_ms"],
		"core.compile": v["core.compile_ms"] * ratio(float64(countIf(ds, sssp)), float64(len(ds))),
		"snn.run":      v["snn.run_ms"] * ratio(float64(countIf(ds, sssp)), float64(len(ds))),
		"core.khop":    v["core.khop_ms"] * ratio(float64(countIf(ds, khop)), float64(len(ds))),
		"unattributed": v["trace.unattributed_ms"],
	}
	out.report = append(out.report, layerReport("serve_mix", self,
		[]string{"http.self", "service.self", "graph.gen", "core.compile", "snn.run", "core.khop", "unattributed"},
		tracedP50, v["op_p50_ms"])...)
	return nil
}

func countIf(ds []decomposed, keep func(decomposed) bool) int {
	n := 0
	for _, d := range ds {
		if keep(d) {
			n++
		}
	}
	return n
}

// decompose replays q through each layer in turn, verifying every answer.
func decompose(out *runOutput, tr *tracer, srv *server, op int, q service.Query) (decomposed, error) {
	d := decomposed{q: q}
	var status int
	var body []byte
	var err error
	d.roundtrip = tr.call(op, -1, "http.roundtrip", func() { status, body, err = srv.get(q) })
	a := readAnswer(status, body, err)
	d.bytes = a.bytes
	want := service.Reference(q)
	checkResponse(&out.check, fmt.Sprintf("replay %d over HTTP", op), a, sumDist(want))

	var resp *service.Response
	d.exec = tr.call(op, -1, "service.exec", func() { resp = srv.svc.Execute(q, srv.svc.Clock().Now()) })
	out.check.check(fmt.Sprintf("replay %d through Execute", op), resp.Dist, want)

	var g *graph.Graph
	d.gen = tr.call(op, -1, "graph.gen", func() { g = graph.RandomGnm(q.N, q.M, graph.Uniform(q.U), q.GraphSeed, true) })
	if q.Workload == "khop" {
		var r *core.TTLResult
		d.solve = tr.call(op, -1, "core.khop", func() { r = core.KHopTTL(g, q.Src, -1, q.K) })
		d.broadcasts = r.Broadcasts
		out.check.check(fmt.Sprintf("replay %d standalone", op), r.Dist, want)
		return d, nil
	}
	var sn *core.SSSPNetwork
	var res *core.SSSPResult
	d.compile = tr.call(op, -1, "core.compile", func() { sn = core.BuildSSSP(g) })
	d.run = tr.call(op, -1, "snn.run", func() { res, err = sn.Run(q.Src, -1) })
	if err != nil {
		return d, fmt.Errorf("replay %d: %w", op, err)
	}
	d.solve = span{DurUs: d.compile.DurUs + d.run.DurUs}
	d.stats = res.Stats
	out.check.check(fmt.Sprintf("replay %d standalone", op), res.Dist, want)
	return d, nil
}

// serviceCounters reads the service's admission, shed, degradation and
// retry totals from its metrics registry.
func serviceCounters(v map[string]float64, svc *service.Service) error {
	var b strings.Builder
	if err := svc.Registry().WritePrometheus(&b); err != nil {
		return fmt.Errorf("reading service registry: %w", err)
	}
	totals := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		var x float64
		if _, err := fmt.Sscan(rest, &x); err == nil {
			totals[name] += x
		}
	}
	v["service.admitted"] = totals[service.MetricAdmitted]
	v["service.shed"] = totals[service.MetricShed]
	v["service.degraded"] = totals[service.MetricDegraded]
	v["service.retries"] = totals[service.MetricRetried]
	return nil
}
