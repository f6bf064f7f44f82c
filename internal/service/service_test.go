package service

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/classic"
	"repro/internal/faults"
	"repro/internal/metrics"
)

func testQuery(workload string) Query {
	return Query{Workload: workload, Tenant: "acme", N: 32, M: 128, U: 8, GraphSeed: 7, Src: 0, K: 4}
}

func newTestService(cfg Config) *Service {
	if cfg.Clock == nil {
		cfg.Clock = &LogicalClock{}
	}
	return New(metrics.NewRegistry(), cfg)
}

func TestLadderExactFaultFree(t *testing.T) {
	s := newTestService(Config{})
	q := testQuery("sssp")
	resp := s.Execute(q, 0)
	if resp.Mode != ModeExact || resp.Degraded {
		t.Fatalf("fault-free sssp served mode=%s degraded=%v, want exact/false", resp.Mode, resp.Degraded)
	}
	ref := Reference(q)
	if !distEqual(resp.Dist, ref) {
		t.Fatalf("exact rung diverged from Dijkstra")
	}
	if resp.Reached == 0 || resp.SpikeTime == 0 {
		t.Fatalf("exact response missing cost accounting: %+v", resp)
	}
}

func TestLadderDeadlineFallsToApprox(t *testing.T) {
	s := newTestService(Config{})
	q := testQuery("sssp")
	q.Budget = 1 // one simulated step: the wavefront cannot finish
	resp := s.Execute(q, 0)
	if resp.Mode != ModeApprox {
		t.Fatalf("budget-starved sssp served mode=%s, want approx", resp.Mode)
	}
	if !resp.Degraded || !resp.TimedOut {
		t.Fatalf("budget-starved response not labeled: degraded=%v timedout=%v", resp.Degraded, resp.TimedOut)
	}
}

func TestLadderKHopDeadlineFallsToApprox(t *testing.T) {
	s := newTestService(Config{})
	q := testQuery("khop")
	q.Budget = 1
	resp := s.Execute(q, 0)
	if resp.Mode != ModeApprox || !resp.Degraded {
		t.Fatalf("budget-starved khop served mode=%s degraded=%v, want approx/true", resp.Mode, resp.Degraded)
	}
	full := s.Execute(testQuery("khop"), 0)
	if full.Mode != ModeExact {
		t.Fatalf("unbudgeted khop served mode=%s, want exact", full.Mode)
	}
	bf := classic.BellmanFordKHop(buildGraph(testQuery("khop")), 0, 4, false)
	if !distEqual(full.Dist, bf.Dist) {
		t.Fatalf("exact khop diverged from Bellman-Ford")
	}
}

// TestKHopKClampedToNMinusOne: a k-hop bound past n-1 cannot change a
// distance (edge lengths are positive), so normalize clamps it there
// instead of paying for a 2^30-hop circuit.
func TestKHopKClampedToNMinusOne(t *testing.T) {
	s := newTestService(Config{})
	big := testQuery("khop")
	big.K = 1 << 30
	if err := s.normalize(&big); err != nil {
		t.Fatal(err)
	}
	if big.K != big.N-1 {
		t.Fatalf("K=1<<30 normalized to %d, want n-1=%d", big.K, big.N-1)
	}
	explicit := testQuery("khop")
	explicit.K = explicit.N - 1
	want := s.Execute(explicit, 0)
	huge := testQuery("khop")
	huge.K = 1 << 30
	got := s.Execute(huge, 0)
	if !Guaranteed(got.Mode) || !distEqual(got.Dist, Reference(explicit)) {
		t.Fatalf("clamped query served mode=%s, not reference-equal", got.Mode)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("K=1<<30 response differs from K=n-1:\n%+v\n%+v", got, want)
	}
}

func TestLadderUnderFaultsNeverServesUnverifiedExact(t *testing.T) {
	s := newTestService(Config{
		Model:      faults.Model{DropProb: 0.05, Seed: 3},
		MaxRetries: 2,
	})
	for i := int64(0); i < 8; i++ {
		q := testQuery("sssp")
		q.GraphSeed = i
		resp := s.Execute(q, 0)
		if resp.Mode == ModeExact {
			t.Fatalf("faulted service served unverified exact answer (graph seed %d)", i)
		}
		if !resp.Degraded {
			t.Fatalf("faulted service response not labeled degraded: mode=%s", resp.Mode)
		}
		if Guaranteed(resp.Mode) && !distEqual(resp.Dist, Reference(q)) {
			t.Fatalf("mode %s promised reference equality and broke it", resp.Mode)
		}
	}
}

func TestLadderDeterministicUnderFaults(t *testing.T) {
	run := func() []string {
		s := newTestService(Config{Model: faults.Model{DropProb: 0.1, Seed: 9}, MaxRetries: 1, Seed: 42})
		var modes []string
		for i := int64(0); i < 6; i++ {
			q := testQuery("sssp")
			q.GraphSeed = i
			modes = append(modes, s.Execute(q, 0).Mode)
		}
		return modes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("faulted ladder not deterministic: run1=%v run2=%v", a, b)
		}
	}
}

func TestQuotaShedsAndRefills(t *testing.T) {
	clk := &LogicalClock{}
	s := newTestService(Config{QuotaTokens: 2, QuotaRefillMilli: 500, Clock: clk})
	// Two tokens available at t=0; the third take must shed.
	for i := 0; i < 2; i++ {
		if _, ok := s.TakeQuota("acme", 0); !ok {
			t.Fatalf("take %d refused with a full bucket", i)
		}
	}
	retryAfter, ok := s.TakeQuota("acme", 0)
	if ok {
		t.Fatalf("empty bucket admitted a query")
	}
	if retryAfter != 2 { // 1000 milli-token deficit at 500/unit
		t.Fatalf("retryAfter = %d units, want 2", retryAfter)
	}
	// Another tenant is unaffected.
	if _, ok := s.TakeQuota("other", 0); !ok {
		t.Fatalf("per-tenant bucket leaked across tenants")
	}
	// After the advertised wait the bucket has refilled exactly one token.
	if _, ok := s.TakeQuota("acme", 2); !ok {
		t.Fatalf("bucket did not refill after the advertised Retry-After")
	}
	if _, ok := s.TakeQuota("acme", 2); ok {
		t.Fatalf("bucket over-refilled")
	}
}

func TestBreakerOpensAndServesClassic(t *testing.T) {
	// Budget-starved queries fail the engine path (approx rung = breaker
	// failure); after the threshold the breaker opens and queries get the
	// classic reference without touching the engine.
	s := newTestService(Config{BreakerThreshold: 2, BreakerCooldown: 100})
	q := testQuery("sssp")
	q.Budget = 1
	s.Execute(q, 0)
	s.Execute(q, 1)
	if got := s.breaker("sssp").State(); got != BreakerOpen {
		t.Fatalf("breaker state after repeated engine failures = %v, want open", got)
	}
	resp := s.Execute(q, 2)
	if resp.Mode != ModeClassic {
		t.Fatalf("open-breaker response mode = %s, want classic", resp.Mode)
	}
	if !distEqual(resp.Dist, Reference(q)) {
		t.Fatalf("classic rung diverged from reference")
	}
	// Cooldown elapses; the half-open probe (unbudgeted this time)
	// succeeds and re-closes the breaker.
	probe := testQuery("sssp")
	if resp := s.Execute(probe, 150); resp.Mode != ModeExact {
		t.Fatalf("half-open probe served mode=%s, want exact", resp.Mode)
	}
	if got := s.breaker("sssp").State(); got != BreakerClosed {
		t.Fatalf("breaker state after successful probe = %v, want closed", got)
	}
}

func TestServiceMetricsExported(t *testing.T) {
	s := newTestService(Config{})
	s.Execute(testQuery("sssp"), 0)
	q := testQuery("sssp")
	q.Budget = 1
	s.Execute(q, 1)
	s.Shed(testQuery("khop"), "queue_full", 3, 2)
	var b strings.Builder
	if err := s.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	scrape := b.String()
	for _, want := range []string{
		`spaa_service_admitted_total{workload="sssp"} 2`,
		`spaa_service_shed_total{reason="queue_full"} 1`,
		`spaa_service_degraded_total{mode="approx",workload="sssp"} 1`,
		`spaa_service_breaker_state{workload="sssp"} 0`,
		`spaa_service_queue_depth 0`,
		`spaa_service_latency_units`,
	} {
		if !strings.Contains(scrape, want) {
			t.Fatalf("scrape missing %q:\n%s", want, scrape)
		}
	}
}

func TestExecuteRejectsMalformedQuery(t *testing.T) {
	s := newTestService(Config{})
	resp := s.Execute(Query{Workload: "mincut"}, 0)
	if resp.Status != 400 || resp.Mode != ModeError {
		t.Fatalf("unknown workload answered %d/%s, want 400/error", resp.Status, resp.Mode)
	}
	bad := testQuery("sssp")
	bad.Src = 99
	if resp := s.Execute(bad, 0); resp.Status != 400 {
		t.Fatalf("out-of-range src answered %d, want 400", resp.Status)
	}
}
