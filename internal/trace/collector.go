package trace

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a Collector.
type Config struct {
	// Seed anchors trace/span ID derivation and the healthy-trace keep
	// hash; two collectors with the same seed mint identical IDs for
	// identical query sequences.
	Seed int64
	// Capacity bounds the sampled-trace ring (default 256). When full,
	// the oldest sampled trace is overwritten (Evicted counts them).
	Capacity int
	// KeepEvery keeps 1 in KeepEvery healthy (un-flagged, not-slow)
	// traces, decided by a deterministic hash of the trace ID. <= 1
	// keeps every trace; the default is 8.
	KeepEvery int64
	// Wall marks the collector as running on wall-clock units (live
	// serving): spans may carry WallMicros refinements and the report is
	// flagged so ZeroWallClock strips them for deterministic manifests.
	Wall bool
	// DropDegraded is a deliberate sampler misconfiguration: the tail
	// decision ignores the degraded/timed-out flags, so those queries
	// survive only by hash or p99 luck. It exists for the negative CI
	// test that proves the coverage gate trips — never set it in
	// production configs.
	DropDegraded bool
}

func (c Config) withDefaults() Config {
	if c.Capacity < 1 {
		c.Capacity = 256
	}
	if c.KeepEvery < 1 {
		c.KeepEvery = 8
	}
	return c
}

// slowWarmup is how many finished traces the p99 estimator needs before
// it starts keeping slow outliers (below it, every latency is novel).
const slowWarmup = 32

// Collector owns the bounded lock-free sampled-trace ring and the
// tail-sampling decision. All hot-path state is atomic; the only mutex
// guards the per-stage aggregate map and the flusher cursor, touched
// once per finished query, never per engine step.
type Collector struct {
	cfg Config

	seq     atomic.Uint64
	started atomic.Int64
	sampled atomic.Int64
	dropped atomic.Int64
	evicted atomic.Int64
	spans   atomic.Int64

	// ring is the sampled-trace buffer: slot i%cap holds the i-th
	// sampled trace; next is the monotone cursor. Writers claim a slot
	// with one atomic add and store a fully built *Trace — lock-free,
	// overwrite-oldest.
	ring []atomic.Pointer[Trace]
	next atomic.Uint64

	// hist is a log2-bucketed histogram of finished-trace durations,
	// feeding the p99-slow keep decision.
	hist  [48]atomic.Int64
	histN atomic.Int64

	mu      sync.Mutex
	stages  map[string]*StageTotal // guarded by mu
	flushed uint64                 // guarded by mu (flusher cursor into ring sequence)
}

// NewCollector builds a collector.
func NewCollector(cfg Config) *Collector {
	cfg = cfg.withDefaults()
	return &Collector{
		cfg:    cfg,
		ring:   make([]atomic.Pointer[Trace], cfg.Capacity),
		stages: make(map[string]*StageTotal),
	}
}

// Wall reports whether the collector runs on wall-clock units.
func (c *Collector) Wall() bool { return c != nil && c.cfg.Wall }

// Counters returns the sampler counters. The tail-sampler contract is
// started == sampled + dropped once every started trace has finished.
func (c *Collector) Counters() (started, sampled, dropped, evicted, spans int64) {
	if c == nil {
		return
	}
	return c.started.Load(), c.sampled.Load(), c.dropped.Load(),
		c.evicted.Load(), c.spans.Load()
}

// StartTrace mints a new trace for one query at clock reading now,
// continuing the caller's trace when traceparent carries a valid W3C
// header. A nil collector returns a nil *Active, on which every method
// is a no-op — the untraced fast path.
func (c *Collector) StartTrace(now int64, workload, tenant, traceparent string) *Active {
	if c == nil {
		return nil
	}
	c.started.Add(1)
	seq := c.seq.Add(1)
	tr := &Trace{
		ID:       deriveTraceID(c.cfg.Seed, seq),
		Workload: workload,
		Tenant:   tenant,
		Start:    now,
	}
	if tid, sid, ok := ParseTraceparent(traceparent); ok {
		tr.ID = tid
		tr.RemoteParent = sid
	}
	tr.Root = deriveSpanID(tr.ID, 0)
	tr.Spans = append(tr.Spans, Span{
		ID: tr.Root, Parent: tr.RemoteParent, Stage: StageQuery, Detail: workload,
	})
	return &Active{c: c, tr: tr}
}

// finish runs the tail-sampling decision for a completed trace and
// reports whether it was kept.
func (c *Collector) finish(tr *Trace) bool {
	c.spans.Add(int64(len(tr.Spans)))
	c.mu.Lock()
	for i := range tr.Spans {
		s := &tr.Spans[i]
		st := c.stages[s.Stage]
		if st == nil {
			st = &StageTotal{Stage: s.Stage}
			c.stages[s.Stage] = st
		}
		st.Count++
		st.Units += s.Dur
		st.Steps += s.Steps
		st.Spikes += s.Spikes
		st.Deliveries += s.Deliveries
	}
	c.mu.Unlock()

	flags := tr.Flags
	if c.cfg.DropDegraded {
		flags &^= FlagDegraded | FlagTimedOut
	}
	keep := flags != 0
	if !keep && c.histN.Load() >= slowWarmup && tr.Dur >= c.slowThreshold() {
		tr.Flags |= FlagSlow
		keep = true
	}
	c.recordDur(tr.Dur)
	if !keep && c.keepByHash(tr.ID) {
		keep = true
	}
	if !keep {
		c.dropped.Add(1)
		return false
	}
	c.put(tr)
	c.sampled.Add(1)
	return true
}

// put claims the next ring slot and stores the trace.
func (c *Collector) put(tr *Trace) {
	i := c.next.Add(1) - 1
	if i >= uint64(len(c.ring)) {
		c.evicted.Add(1)
	}
	c.ring[i%uint64(len(c.ring))].Store(tr)
}

// keepByHash is the deterministic 1-in-KeepEvery healthy-trace keep.
func (c *Collector) keepByHash(id TraceID) bool {
	if c.cfg.KeepEvery <= 1 {
		return true
	}
	return splitmix64(uint64(id)^uint64(c.cfg.Seed))%uint64(c.cfg.KeepEvery) == 0
}

// recordDur folds a finished-trace duration into the log2 histogram.
func (c *Collector) recordDur(d int64) {
	if d < 0 {
		d = 0
	}
	c.hist[bits.Len64(uint64(d))].Add(1)
	c.histN.Add(1)
}

// slowThreshold estimates the p99 finished-trace duration as the lower
// bound of the first log2 bucket holding the top percentile: traces at
// or above it are tail outliers worth keeping.
func (c *Collector) slowThreshold() int64 {
	total := c.histN.Load()
	if total == 0 {
		return 1 << 62
	}
	budget := total - (total*99)/100
	if budget < 1 {
		budget = 1
	}
	// Walk buckets from the top: the threshold bucket is where the
	// cumulative tail count first reaches the 1% budget.
	var tail int64
	for b := len(c.hist) - 1; b >= 0; b-- {
		tail += c.hist[b].Load()
		if tail >= budget {
			if b == 0 {
				return 0
			}
			return int64(1) << (b - 1)
		}
	}
	return 0
}

// Snapshot returns the sampled traces currently in the ring, oldest
// first. Under concurrent writers a slot being overwritten may be
// skipped; deterministic (sequential) campaigns see the exact window.
func (c *Collector) Snapshot() []*Trace {
	if c == nil {
		return nil
	}
	n := c.next.Load()
	capa := uint64(len(c.ring))
	start := uint64(0)
	if n > capa {
		start = n - capa
	}
	out := make([]*Trace, 0, n-start)
	for i := start; i < n; i++ {
		if tr := c.ring[i%capa].Load(); tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// FlushNew hands every trace sampled since the previous flush to sink
// (oldest first). Traces evicted from the ring before a flush reached
// them are lost — size Capacity and the flush interval accordingly.
func (c *Collector) FlushNew(sink func([]*Trace)) {
	if c == nil || sink == nil {
		return
	}
	n := c.next.Load()
	capa := uint64(len(c.ring))
	c.mu.Lock()
	from := c.flushed
	if n > capa && from < n-capa {
		from = n - capa
	}
	c.flushed = n
	c.mu.Unlock()
	if from >= n {
		return
	}
	batch := make([]*Trace, 0, n-from)
	for i := from; i < n; i++ {
		if tr := c.ring[i%capa].Load(); tr != nil {
			batch = append(batch, tr)
		}
	}
	if len(batch) > 0 {
		sink(batch)
	}
}

// StartFlusher drains newly sampled traces to sink every interval from
// a background goroutine, until the returned stop function is called.
// stop performs a final drain and joins the goroutine (idempotent) —
// the server-shutdown path the goroutine-leak test exercises.
func (c *Collector) StartFlusher(interval time.Duration, sink func([]*Trace)) (stop func()) {
	if c == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				c.FlushNew(sink)
				return
			case <-ticker.C:
				c.FlushNew(sink)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			ticker.Stop()
			close(done)
			<-finished
		})
	}
}

// SpanRef indexes a span within an Active trace.
type SpanRef int

// Active is one in-flight query's trace: a span accumulator owned by
// the single goroutine executing the query (no locking) plus the
// logical-unit cursor the span timeline advances on. Every method is
// nil-receiver safe, so untraced services pay a nil check and nothing
// else.
type Active struct {
	c      *Collector
	tr     *Trace
	cursor int64
	done   bool
}

// TraceID returns the 16-hex-digit trace ID, "" for a nil Active.
func (a *Active) TraceID() string {
	if a == nil {
		return ""
	}
	return a.tr.ID.String()
}

// Traceparent renders the outgoing W3C header for downstream calls.
func (a *Active) Traceparent() string {
	if a == nil {
		return ""
	}
	return FormatTraceparent(a.tr.ID, a.tr.Root)
}

// Begin opens a span under the root at the current cursor.
func (a *Active) Begin(stage, detail string) SpanRef {
	if a == nil {
		return -1
	}
	return a.beginUnder(a.tr.Root, stage, detail)
}

// BeginUnder opens a span nested under parent at the current cursor.
func (a *Active) BeginUnder(parent SpanRef, stage, detail string) SpanRef {
	if a == nil {
		return -1
	}
	pid := a.tr.Root
	if int(parent) >= 0 && int(parent) < len(a.tr.Spans) {
		pid = a.tr.Spans[parent].ID
	}
	return a.beginUnder(pid, stage, detail)
}

func (a *Active) beginUnder(parent SpanID, stage, detail string) SpanRef {
	idx := len(a.tr.Spans)
	a.tr.Spans = append(a.tr.Spans, Span{
		ID: deriveSpanID(a.tr.ID, idx), Parent: parent,
		Stage: stage, Detail: detail, Start: a.cursor,
	})
	return SpanRef(idx)
}

// End closes a span with a duration of units logical units, advancing
// the cursor past it.
func (a *Active) End(ref SpanRef, units int64) {
	if a == nil || int(ref) < 0 || int(ref) >= len(a.tr.Spans) {
		return
	}
	if units < 0 {
		units = 0
	}
	s := &a.tr.Spans[ref]
	s.Dur = units
	if end := s.Start + units; end > a.cursor {
		a.cursor = end
	}
}

// EndAt closes a span at the current cursor — the close for parent
// spans whose children advanced the timeline.
func (a *Active) EndAt(ref SpanRef) {
	if a == nil || int(ref) < 0 || int(ref) >= len(a.tr.Spans) {
		return
	}
	s := &a.tr.Spans[ref]
	if d := a.cursor - s.Start; d > 0 {
		s.Dur = d
	}
}

// Event records a zero-duration span at the current cursor (breaker
// transitions, shed decisions).
func (a *Active) Event(stage, detail string) {
	if a == nil {
		return
	}
	a.beginUnder(a.tr.Root, stage, detail)
}

// SetWallMicros attaches a measured wall-clock duration to a span.
// Recorded only by wall-mode collectors, so deterministic campaigns
// stay byte-identical no matter what the caller measured.
func (a *Active) SetWallMicros(ref SpanRef, us int64) {
	if a == nil || !a.c.cfg.Wall || int(ref) < 0 || int(ref) >= len(a.tr.Spans) || us < 0 {
		return
	}
	a.tr.Spans[ref].WallMicros = us
}

// PhaseSpan implements the perf.SpanSink seam: a perf.Tracker wired to
// an Active lands its wall-measured phases as WallMicros refinements on
// the matching build/run spans (most recent span of that stage).
func (a *Active) PhaseSpan(name string, startMicros, durMicros int64) {
	if a == nil || !a.c.cfg.Wall {
		return
	}
	for i := len(a.tr.Spans) - 1; i >= 0; i-- {
		if a.tr.Spans[i].Stage == name {
			if durMicros > 0 {
				a.tr.Spans[i].WallMicros = durMicros
			}
			return
		}
	}
}

// EndEngine closes a run span with units logical units and records the
// engine totals of the work it covers — the steps, spikes and
// deliveries of the run's snn.Stats, summed over replicas or attempts
// when the span covers several runs.
func (a *Active) EndEngine(ref SpanRef, units, steps, spikes, deliveries int64) {
	if a == nil {
		return
	}
	a.End(ref, units)
	if int(ref) >= 0 && int(ref) < len(a.tr.Spans) {
		s := &a.tr.Spans[ref]
		s.Steps, s.Spikes, s.Deliveries = steps, spikes, deliveries
	}
}

// Spans exposes the accumulated spans (for metric folds after Finish).
// Callers must not mutate the returned slice.
func (a *Active) Spans() []Span {
	if a == nil {
		return nil
	}
	return a.tr.Spans
}

// Finish completes the trace with the query's outcome flags at clock
// reading now and runs the tail-sampling decision, reporting whether
// the trace was kept. Idempotent: only the first call decides.
func (a *Active) Finish(now int64, flags Flags) bool {
	if a == nil || a.done {
		return false
	}
	a.done = true
	a.tr.Flags = flags
	a.tr.Dur = a.cursor
	a.tr.Spans[0].Dur = a.cursor
	if a.c.cfg.Wall {
		if w := now - a.tr.Start; w > 0 {
			a.tr.WallMS = w
		}
	}
	return a.c.finish(a.tr)
}
