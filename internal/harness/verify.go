package harness

import (
	"fmt"
	"strings"

	"repro/internal/classic"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/distance"
	"repro/internal/flow"
	"repro/internal/graph"
)

// Check is one acceptance criterion of the reproduction.
type Check struct {
	Name string
	OK   bool
	Note string
}

// Verify runs a fast end-to-end acceptance pass over the headline claims
// — the release gate a packager would run after `go test ./...`. Each
// check exercises a different layer with fresh workloads (seeded by the
// argument) and reports a one-line verdict.
func Verify(seed int64) []Check {
	var out []Check
	add := func(name string, ok bool, note string, args ...any) {
		out = append(out, Check{Name: name, OK: ok, Note: fmt.Sprintf(note, args...)})
	}

	// 1. Spiking SSSP == Dijkstra.
	g := graph.RandomGnm(200, 800, graph.Uniform(10), seed, true)
	spk := mustSSSP(g, 0, -1)
	dij := classic.Dijkstra(g, 0)
	ok := true
	for v := range dij.Dist {
		if spk.Dist[v] != dij.Dist[v] {
			ok = false
		}
	}
	add("spiking SSSP == Dijkstra", ok, "n=%d m=%d", g.N(), g.M())

	// 2. k-hop TTL and polynomial == Bellman-Ford.
	k := 6
	bf := classic.BellmanFordKHop(g, 0, k, false)
	ttl := core.KHopTTL(g, 0, -1, k)
	poly := core.KHopPoly(g, 0, k)
	ok = true
	for v := range bf.Dist {
		if ttl.Dist[v] != bf.Dist[v] || poly.Dist[v] != bf.Dist[v] {
			ok = false
		}
	}
	add("k-hop TTL & polynomial == Bellman-Ford", ok, "k=%d", k)

	// 3. Gate-level machines == Bellman-Ford.
	gs := graph.RandomGnm(8, 24, graph.Uniform(4), seed+1, true)
	wantS := classic.BellmanFordKHop(gs, 0, 3, false).Dist
	td, _ := core.CompileKHopTTL(gs, 0, 3).Run()
	pd, _ := core.CompileKHopPoly(gs, 0, 3).Run()
	ok = true
	for v := range wantS {
		if td[v] != wantS[v] || pd[v] != wantS[v] {
			ok = false
		}
	}
	add("gate-level compiled machines correct", ok, "pure LIF spikes, n=%d k=3", gs.N())

	// 4. Crossbar embedding preserves distances.
	gc := graph.RandomGnm(12, 48, graph.Uniform(6), seed+2, true)
	cb := crossbar.New(12)
	if _, err := cb.Embed(gc); err != nil {
		add("crossbar embedding", false, "embed failed: %v", err)
	} else {
		run := cb.SSSP(0)
		ref := classic.Dijkstra(gc, 0)
		ok = true
		for v := range ref.Dist {
			if run.Dist[v] != ref.Dist[v] {
				ok = false
			}
		}
		add("crossbar embedding preserves SSSP", ok, "H_%d, scale %d", 12, run.Scale)
	}

	// 5. DISTANCE bounds respected.
	scan := distance.ScanInput(4096, 4, distance.Spread)
	lb := distance.ScanLowerBound(4096, 4)
	add("Theorem 6.1 scan bound respected", float64(scan) >= lb,
		"measured %d >= bound %.0f", scan, lb)
	bfm := distance.BellmanFordKHop(g, 0, k, 4, distance.Spread)
	lb2 := distance.KHopLowerBound(g.M(), 4, k)
	add("Theorem 6.2 movement bound respected", float64(bfm.Movement) >= lb2,
		"measured %d >= bound %.0f", bfm.Movement, lb2)

	// 6. Approximation sandwich.
	apx := core.ApproxKHop(g, 0, k, 0)
	hi := classic.BellmanFordKHop(g, 0, k, false).Dist
	lo := classic.BellmanFordKHop(g, 0, apx.HopSlack, false).Dist
	ok = true
	for v := range hi {
		if hi[v] >= graph.Inf {
			continue
		}
		if apx.Dist[v] < float64(lo[v])-1e-9 || apx.Dist[v] > (1+apx.Epsilon)*float64(hi[v])+1e-9 {
			ok = false
		}
	}
	add("Theorem 7.2 approximation sandwich", ok, "eps=%.3f scales=%d", apx.Epsilon, apx.Scales)

	// 7. CONGEST transpilation bit budget + SSSP equality.
	cd, cres := congest.SSSP(g, 0, g.N())
	ok = true
	for v := range dij.Dist {
		if cd[v] != dij.Dist[v] {
			ok = false
		}
	}
	add("CONGEST SSSP == Dijkstra", ok, "rounds=%d max-bits=%d", cres.Rounds, cres.MaxMessageBits)

	// 8. Tidal flow agreement.
	gf := graph.Layered(4, 6, graph.Uniform(12), seed+3)
	tf := flow.Tidal(gf, 0, gf.N()-1)
	dn := flow.Dinic(gf, 0, gf.N()-1)
	add("tidal flow == Dinic", tf.Value == dn && tf.FallbackAugments == 0,
		"value %d, %d cycles", tf.Value, tf.Cycles)

	return out
}

// RenderChecks formats the verdicts, and returns failed=true if any
// check failed.
func RenderChecks(checks []Check) (string, bool) {
	var b strings.Builder
	failed := false
	for _, c := range checks {
		mark := "PASS"
		if !c.OK {
			mark = "FAIL"
			failed = true
		}
		fmt.Fprintf(&b, "[%s] %-42s %s\n", mark, c.Name, c.Note)
	}
	return b.String(), failed
}

// mustSSSP runs the fault-free spiking SSSP, which cannot time out; the
// harness's sweep and report paths use it where an error return would
// only obscure the table-building code.
func mustSSSP(g *graph.Graph, src, dst int) *core.SSSPResult {
	r, err := core.SSSP(g, src, dst)
	if err != nil {
		panic(err)
	}
	return r
}
