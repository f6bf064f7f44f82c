package main

import (
	"repro/internal/classic"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

// The measured work of the sssp/congest/table1 subcommands, factored out
// so `spaabench gate` re-executes a committed baseline through exactly
// the code path (probes, counters, manifest fields) that produced it. The cmd* wrappers own flag parsing and printing; the
// runners own everything a manifest records.

// runSSSPSpiking executes the Section 3 spiking SSSP run and fills the
// obs bundle the way `spaabench sssp -algo spiking` records it.
func runSSSPSpiking(o *obs, g *graph.Graph, seed int64, src, dst int) *core.SSSPResult {
	o.setGraph(g, seed, "random")
	o.Man.SetConfig("algo", "spiking").SetConfig("src", src).SetConfig("dst", dst).
		SetConfig("u", g.MaxLen())
	r, err := core.SSSP(g, src, dst, o.snnProbes()...)
	if err != nil {
		// Fault-free runs cannot time out; a failure here is an engine bug.
		panic(err)
	}
	o.Man.Stats = telemetry.StatsFrom(r.Stats)
	o.Rec.Add("neurons", int64(r.Neurons))
	o.Tr.Span("phase", "wavefront", 0, r.SpikeTime)
	return r
}

// congestRun is what runCongest measures (the printable summary of
// `spaabench congest`).
type congestRun struct {
	BFSRounds       int
	BFSMessages     int64
	BFSMaxBits      int
	SSSPRounds      int
	SSSPMessages    int64
	SSSPMaxBits     int
	SSSPTotalBits   int64
	MatchesDijkstra bool
}

// runCongest executes the distributed BFS + SSSP pair and fills the obs
// bundle the way `spaabench congest` records it.
func runCongest(o *obs, g *graph.Graph, seed int64) congestRun {
	o.setGraph(g, seed, "random")
	o.Man.SetConfig("u", g.MaxLen())
	_, bfsRes := congest.BFS(g, 0)
	// Only the SSSP run feeds the per-round probe series; BFS totals go
	// into plain counters so the two runs' rounds don't interleave.
	dist, ssspRes := congest.SSSP(g, 0, g.N(), o.congestProbes()...)
	ref := classic.Dijkstra(g, 0)
	match := true
	for v := range dist {
		if dist[v] != ref.Dist[v] {
			match = false
		}
	}
	o.Rec.Add("bfs_rounds", int64(bfsRes.Rounds))
	o.Rec.Add("bfs_messages", bfsRes.MessagesSent)
	o.Rec.Add("sssp_rounds", int64(ssspRes.Rounds))
	o.Rec.Add("sssp_max_message_bits", int64(ssspRes.MaxMessageBits))
	o.Tr.Span("phase", "congest-sssp", 0, int64(ssspRes.Rounds))
	return congestRun{
		BFSRounds: bfsRes.Rounds, BFSMessages: bfsRes.MessagesSent, BFSMaxBits: bfsRes.MaxMessageBits,
		SSSPRounds: ssspRes.Rounds, SSSPMessages: ssspRes.MessagesSent,
		SSSPMaxBits: ssspRes.MaxMessageBits, SSSPTotalBits: ssspRes.TotalBits,
		MatchesDijkstra: match,
	}
}

// runTable1 executes the Table 1 sweep and fills the obs bundle the way
// `spaabench table1` records it.
func runTable1(o *obs, cfg harness.Table1Config) *harness.Table1Report {
	o.Man.SetConfig("sizes", cfg.Sizes).SetConfig("density", cfg.Density).
		SetConfig("u", cfg.U).SetConfig("k", cfg.K).SetConfig("c", cfg.C).
		SetConfig("seed", cfg.Seed).SetConfig("skip_movement", cfg.SkipMovement)
	cfg.DistanceProbe = o.distanceProbe()
	return harness.RunTable1(cfg)
}
