package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

// gateCase is one baselined workload: run produces a fresh manifest
// that `spaabench gate` diffs against the committed BENCH_<name>.json.
type gateCase struct {
	name string
	// tier groups cases by scale: "smoke" (the CI negative tests),
	// "small" (the CI gate), "large" (local trend tracking).
	tier string
	run  func(gateOptions) (*telemetry.Manifest, error)
}

// gateOptions are the run-side knobs of the gate; each reaches only the
// cases it applies to.
type gateOptions struct {
	deterministic bool
	slowdownMS    int   // perf cases: artificial run-phase sleep
	tariffScale   int64 // energy cases: tariff scale in milli-units
}

// baselineFile names the committed baseline manifest of a case.
func baselineFile(name string) string { return "BENCH_" + name + ".json" }

// gateCases is the registry of every baselined workload: the perf tier,
// the energy sweep, and the three fixed runs of the sssp, table1 and
// congest subcommands.
func gateCases() []gateCase {
	var cases []gateCase
	for _, c := range harness.PerfCases {
		cases = append(cases, gateCase{"perf_" + c.Name, c.Tier, func(o gateOptions) (*telemetry.Manifest, error) {
			return harness.RunPerfCase(c, harness.PerfOptions{Deterministic: o.deterministic, SlowdownMS: o.slowdownMS})
		}})
	}
	for _, c := range harness.EnergyCases {
		cases = append(cases, gateCase{"energy_" + c.Name, "small", func(o gateOptions) (*telemetry.Manifest, error) {
			return harness.RunEnergyCase(c, harness.EnergyOptions{Deterministic: o.deterministic, TariffScaleMilli: o.tariffScale})
		}})
	}
	return append(cases,
		gateCase{"snn_sssp", "small", func(o gateOptions) (*telemetry.Manifest, error) {
			return runnerManifest("sssp", o, func(ob *obs) {
				runSSSPSpiking(ob, graph.RandomGnm(256, 1024, graph.Uniform(8), 1, true), 1, 0, -1)
			})
		}},
		gateCase{"distance_table1", "small", func(o gateOptions) (*telemetry.Manifest, error) {
			return runnerManifest("table1", o, func(ob *obs) {
				runTable1(ob, harness.Table1Config{Sizes: []int{32, 64}, Density: 4, U: 8, K: 8, C: 4, Seed: 1})
			})
		}},
		gateCase{"congest", "small", func(o gateOptions) (*telemetry.Manifest, error) {
			return runnerManifest("congest", o, func(ob *obs) {
				runCongest(ob, graph.RandomGnm(64, 256, graph.Uniform(8), 1, true), 1)
			})
		}},
	)
}

// runnerManifest runs a subcommand's shared runner through a forced
// obs bundle, so the manifest is the one that subcommand's -metrics
// flag writes.
func runnerManifest(command string, o gateOptions, run func(*obs)) (*telemetry.Manifest, error) {
	ob := &obs{force: true, deterministic: o.deterministic}
	if err := ob.begin(command); err != nil {
		return nil, err
	}
	run(ob)
	return ob.finalManifest(), nil
}

// selectGateCases picks the cases named in list (comma-separated), or
// else every case of tier ("all" selects the whole registry).
func selectGateCases(tier, list string) ([]gateCase, error) {
	all := gateCases()
	var out []gateCase
	if list != "" {
	names:
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			for _, c := range all {
				if c.name == name {
					out = append(out, c)
					continue names
				}
			}
			return nil, fmt.Errorf("unknown gate case %q", name)
		}
		return out, nil
	}
	for _, c := range all {
		if tier == "all" || c.tier == tier {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no gate cases in tier %q", tier)
	}
	return out, nil
}

// gateResult is the verdict on one fresh case run against its baseline.
type gateResult struct {
	name        string
	base, fresh *telemetry.Manifest
	drifts      []telemetry.Drift
	// wallApplied reports that both sides carry a perf wall time, so
	// the wall band ran; wallExceeded that the fresh run broke it.
	wallApplied, wallExceeded bool
}

func (r *gateResult) ok() bool { return r.base != nil && !r.wallExceeded && len(r.drifts) == 0 }

// compareGate diffs a fresh manifest against its baseline (nil: none
// exists): every deterministic quantity through telemetry.DiffManifests
// under tol, and the perf section's total wall time within the wallTol
// band when both sides measured it.
func compareGate(name string, base, fresh *telemetry.Manifest, tol, wallTol float64) *gateResult {
	r := &gateResult{name: name, base: base, fresh: fresh}
	if base == nil {
		return r
	}
	r.drifts = telemetry.DiffManifests(base, fresh, telemetry.Tolerance{Rel: tol})
	if base.Perf != nil && fresh.Perf != nil && base.Perf.WallMS > 0 && fresh.Perf.WallMS > 0 {
		r.wallApplied = true
		r.wallExceeded = fresh.Perf.WallMS > base.Perf.WallMS*(1+wallTol)
	}
	return r
}

// renderGate formats the verdict table — one row per case, engine
// totals from the fresh run's stats (else its perf section) and perf
// wall times on both sides — followed by every drift, every wall
// violation, and the cases the wall band could not judge.
func renderGate(results []*gateResult, wallTol float64) string {
	var b strings.Builder
	row := "%-30s %-28s %8s %12s %10s %10s  %s\n"
	fmt.Fprintf(&b, row, "case", "command", "steps", "deliveries", "base ms", "fresh ms", "status")
	wallMS := func(m *telemetry.Manifest) string {
		if m == nil || m.Perf == nil || m.Perf.WallMS <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", m.Perf.WallMS)
	}
	var notes, noWall []string
	for _, r := range results {
		steps, deliveries := "-", "-"
		if s := r.fresh.Stats; s != nil {
			steps, deliveries = fmt.Sprint(s.Steps), fmt.Sprint(s.Deliveries)
		} else if p := r.fresh.Perf; p != nil {
			steps, deliveries = fmt.Sprint(p.Steps), fmt.Sprint(p.Deliveries)
		}
		status := "ok"
		switch {
		case r.base == nil:
			status = "NO BASELINE"
		case r.wallExceeded && len(r.drifts) > 0:
			status = fmt.Sprintf("DRIFT (%d) + WALL", len(r.drifts))
		case r.wallExceeded:
			status = "WALL EXCEEDED"
		case len(r.drifts) > 0:
			status = fmt.Sprintf("DRIFT (%d)", len(r.drifts))
		}
		fmt.Fprintf(&b, row, r.name, r.fresh.Command, steps, deliveries, wallMS(r.base), wallMS(r.fresh), status)
		for _, d := range r.drifts {
			notes = append(notes, fmt.Sprintf("  %s: %s\n", r.name, d))
		}
		if r.wallExceeded {
			notes = append(notes, fmt.Sprintf("  %s: wall %.1fms exceeds baseline %.1fms by more than %.0f%%\n",
				r.name, r.fresh.Perf.WallMS, r.base.Perf.WallMS, wallTol*100))
		}
		if !r.wallApplied {
			noWall = append(noWall, r.name)
		}
	}
	b.WriteString(strings.Join(notes, ""))
	if len(noWall) > 0 {
		fmt.Fprintf(&b, "wall band not applied (no wall data): %s\n", strings.Join(noWall, ", "))
	}
	return b.String()
}

func readManifestFile(path string) (*telemetry.Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return telemetry.ReadManifest(f)
}

// readBaseline loads a baseline manifest; a missing file returns nil.
func readBaseline(path string) (*telemetry.Manifest, error) {
	man, err := readManifestFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return man, err
}

// cmdGate runs every selected case and diffs each fresh manifest
// against its committed BENCH_<case>.json baseline. Deterministic
// quantities compare exactly by default (they are functions of the
// seed and the Table 3 tariffs alone); perf wall time compares within
// the -wall-tol band when both sides measured it. Any drift, missing
// baseline or wall violation exits nonzero. -slowdown-ms and
// -tariff-scale are the negative tests proving the gate trips.
func cmdGate(args []string) error {
	f := flag.NewFlagSet("gate", flag.ExitOnError)
	tier := f.String("tier", "small", "case tier: smoke|small|large|all")
	caseList := f.String("cases", "", "comma-separated case names (overrides -tier)")
	baselineDir := f.String("baseline-dir", ".", "directory holding the BENCH_<case>.json baselines")
	writeBaseline := f.String("write-baseline", "", "write fresh manifests as baselines into this directory and exit")
	out := f.String("out", "", "also write fresh manifests into this directory")
	tol := f.Float64("tol", 0, "relative tolerance for deterministic quantities (0 = exact; tariffs always compare exactly)")
	wallTol := f.Float64("wall-tol", 0.5, "accepted relative perf wall-time slowdown vs baseline")
	var o gateOptions
	f.BoolVar(&o.deterministic, "deterministic", false, "zero wall-clock fields (byte-reproducible manifests; baselines are written this way)")
	f.IntVar(&o.slowdownMS, "slowdown-ms", 0, "inject an artificial sleep into perf run phases (negative test for the wall band)")
	f.Int64Var(&o.tariffScale, "tariff-scale", 0, "scale every energy tariff by this many milli-units (1000 = verbatim; negative test)")
	if err := f.Parse(args); err != nil {
		return err
	}
	cases, err := selectGateCases(*tier, *caseList)
	if err != nil {
		return err
	}

	var results []*gateResult
	for _, c := range cases {
		man, err := c.run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		if *writeBaseline != "" {
			path := filepath.Join(*writeBaseline, baselineFile(c.name))
			if err := man.WriteFile(path); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
			continue
		}
		if *out != "" {
			if err := man.WriteFile(filepath.Join(*out, baselineFile(c.name))); err != nil {
				return err
			}
		}
		base, err := readBaseline(filepath.Join(*baselineDir, baselineFile(c.name)))
		if err != nil {
			return err
		}
		results = append(results, compareGate(c.name, base, man, *tol, *wallTol))
	}
	if *writeBaseline != "" {
		return nil
	}

	fmt.Print(renderGate(results, *wallTol))
	var failed []string
	for _, r := range results {
		if !r.ok() {
			failed = append(failed, r.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("gate failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
