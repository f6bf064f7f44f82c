package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/perf"
	"repro/internal/telemetry"
)

// Perf benchmark tier: named, seeded SSSP workloads whose manifests are
// committed as BENCH_perf_<name>.json baselines and tracked run over run
// by `spaabench gate`. Each case runs the full vertical — graph
// generation + netlist build (phase "build"), spiking simulation
// (phase "run"), result digestion (phase "report") — under a
// perf.Tracker, so the manifest's spaa-perf/v1 section carries both the
// seed-determined counters the gate compares exactly and the wall-clock
// rates the trend table displays.

// PerfCase names one benchmark workload.
type PerfCase struct {
	// Name keys the case and its BENCH_perf_<Name>.json baseline.
	Name string
	// Tier groups cases by scale: "smoke" (CI negative test), "small"
	// (CI gate, ~10^5 vertices), "large" (local trend tracking).
	Tier string
	// Kind selects the generator: "random" (connected Gnm), "grid"
	// (2D lattice), "scalefree" (preferential attachment).
	Kind string
	// N and M are the vertex/edge targets (M is ignored for grids; the
	// side is derived from N).
	N, M int
	// U bounds edge lengths (Uniform(U)); Seed fixes the instance.
	U, Seed int64
}

// PerfCases is the registry of benchmark workloads. Counter totals are
// functions of (Kind, N, M, U, Seed) alone, so the committed baselines
// hold across machines; only wall-derived fields vary.
var PerfCases = []PerfCase{
	{Name: "sssp_random_2k", Tier: "smoke", Kind: "random", N: 2_000, M: 8_000, U: 8, Seed: 7},
	{Name: "sssp_random_100k", Tier: "small", Kind: "random", N: 100_000, M: 400_000, U: 8, Seed: 11},
	{Name: "sssp_grid_100k", Tier: "small", Kind: "grid", N: 100_000, U: 4, Seed: 3},
	{Name: "sssp_scalefree_100k", Tier: "small", Kind: "scalefree", N: 100_000, M: 400_000, U: 8, Seed: 13},
	{Name: "sssp_random_1m", Tier: "large", Kind: "random", N: 1_000_000, M: 4_000_000, U: 8, Seed: 17},
}

// perfGraph instantiates a case's graph.
func perfGraph(c PerfCase) *graph.Graph {
	switch c.Kind {
	case "grid":
		// A square-ish lattice with at least N vertices.
		side := 1
		for side*side < c.N {
			side++
		}
		return graph.Grid(side, side, graph.Uniform(c.U), c.Seed)
	case "scalefree":
		deg := c.M / c.N
		if deg < 1 {
			deg = 1
		}
		return graph.PreferentialAttachment(c.N, deg, graph.Uniform(c.U), c.Seed)
	default:
		return graph.RandomGnm(c.N, c.M, graph.Uniform(c.U), c.Seed, true)
	}
}

// PerfOptions configures one benchmark execution.
type PerfOptions struct {
	// Deterministic zeroes every wall-clock field of the manifest
	// (including the perf section's wall-derived half), making two runs
	// of the same case byte-identical — the mode baselines are written
	// in.
	Deterministic bool
	// SlowdownMS injects an artificial sleep into the "run" phase — the
	// CI negative test uses it to prove the wall band actually trips.
	SlowdownMS int
}

// RunPerfCase executes one benchmark case and returns its manifest with
// the spaa-perf/v1 section populated. The manifest's counters carry a
// distance checksum and reach count, so a perf regression that changes
// *results* (not just speed) is caught by the same gate.
func RunPerfCase(c PerfCase, opts PerfOptions) (*telemetry.Manifest, error) {
	tracker := perf.NewTracker()
	man := telemetry.NewManifest("spaabench", "perf:"+c.Name)
	man.SetConfig("tier", c.Tier)
	man.SetConfig("kind", c.Kind)
	//lint:wallclock manifest wall time is zeroed downstream under -deterministic
	start := time.Now()

	tracker.Phase("build")
	g := perfGraph(c)
	man.Graph = &telemetry.GraphParams{N: g.N(), M: g.M(), MaxLen: g.MaxLen(), Seed: c.Seed, Kind: c.Kind}
	net := core.BuildSSSP(g)

	tracker.Phase("run")
	res, err := net.Run(0, -1)
	if err != nil {
		return nil, fmt.Errorf("harness: perf case %s: %w", c.Name, err)
	}
	if opts.SlowdownMS > 0 {
		time.Sleep(time.Duration(opts.SlowdownMS) * time.Millisecond)
	}

	tracker.Phase("report")
	var reached, checksum int64
	for _, d := range res.Dist {
		if d < graph.Inf {
			reached++
			checksum += d
		}
	}
	man.Counters = map[string]int64{
		"dist_checksum": checksum,
		"reached":       reached,
		"neurons":       int64(res.Neurons),
		"synapses":      int64(res.Synapses),
	}
	man.Stats = telemetry.StatsFrom(res.Stats)
	tracker.SetTotals(res.Stats.Steps, res.Stats.Spikes, res.Stats.Deliveries, res.Stats.MaxQueueDepth)

	man.Perf = tracker.Report(opts.Deterministic)
	//lint:wallclock manifest wall time is zeroed downstream under -deterministic
	man.Finalize(start, time.Since(start), telemetry.ManifestOptions{Deterministic: opts.Deterministic})
	return man, nil
}
