package main

import (
	"flag"
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/harness"
)

// energyBaselineFile names the committed baseline manifest of a case.
func energyBaselineFile(name string) string {
	return "BENCH_energy_" + name + ".json"
}

// cmdEnergy runs the energy sweep — every registered case executes its
// workload, prices it from the engine's snn.Stats, and prices a classic
// comparator on the same run — and compares each spaa-energy/v1 section against its committed
// BENCH_energy_<case>.json baseline. Every quantity in the section is
// an integral function of the seed and the Table 3 tariffs, so the
// default tolerance is exact; -gate turns any drift into a nonzero
// exit, and -tariff-scale is the CI negative test proving the gate
// trips when the tariff figures move.
func cmdEnergy(args []string) error {
	fs := flag.NewFlagSet("energy", flag.ExitOnError)
	caseList := fs.String("cases", "", "comma-separated case names (default: all registered cases)")
	baselineDir := fs.String("baseline-dir", ".", "directory holding BENCH_energy_<case>.json baselines")
	writeBaseline := fs.String("write-baseline", "", "write fresh manifests as baselines into this directory and exit")
	out := fs.String("out", "", "also write fresh manifests into this directory")
	gate := fs.Bool("gate", false, "exit nonzero when any case drifts from its baseline")
	tol := fs.Float64("tol", 0, "relative tolerance for workload-derived quantities (0 = exact; tariffs always compare exactly)")
	deterministic := fs.Bool("deterministic", false, "zero wall-clock fields (byte-reproducible manifests; baselines are written this way)")
	tariffScale := fs.Int64("tariff-scale", 0, "scale every tariff by this many milli-units (1000 = verbatim; negative test for the gate)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cases []harness.EnergyCase
	if *caseList != "" {
		for _, name := range strings.Split(*caseList, ",") {
			c, ok := harness.EnergyCaseByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown energy case %q", name)
			}
			cases = append(cases, c)
		}
	} else {
		cases = harness.EnergyCases
	}

	opts := harness.EnergyOptions{Deterministic: *deterministic, TariffScaleMilli: *tariffScale}
	var deltas []*harness.EnergyDelta
	for _, c := range cases {
		man, err := harness.RunEnergyCase(c, opts)
		if err != nil {
			return err
		}
		if *writeBaseline != "" {
			path := filepath.Join(*writeBaseline, energyBaselineFile(c.Name))
			if err := man.WriteFile(path); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
			continue
		}
		if *out != "" {
			if err := man.WriteFile(filepath.Join(*out, energyBaselineFile(c.Name))); err != nil {
				return err
			}
		}
		base, err := readPerfBaseline(filepath.Join(*baselineDir, energyBaselineFile(c.Name)))
		if err != nil {
			return err
		}
		deltas = append(deltas, harness.CompareEnergy(c.Name, base, man, *tol))
	}
	if *writeBaseline != "" {
		return nil
	}

	fmt.Print(harness.RenderEnergyTable(deltas))
	var failed []string
	for _, d := range deltas {
		if !d.OK() {
			failed = append(failed, d.Name)
			for _, drift := range d.Drifts {
				fmt.Printf("  %s: %s\n", d.Name, drift)
			}
		}
	}
	if *gate && len(failed) > 0 {
		return fmt.Errorf("energy gate failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
