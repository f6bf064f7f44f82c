package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// repoRoot holds the committed BENCH_*.json baselines.
const repoRoot = "../.."

// TestPerfDeterministicByteIdentical: two `spaabench gate -deterministic`
// invocations of the same case must write byte-identical manifests —
// the property that lets BENCH_*.json baselines be committed and
// regenerated on any machine.
func TestPerfDeterministicByteIdentical(t *testing.T) {
	var outs [2][]byte
	for i := range outs {
		dir := t.TempDir()
		code := realMain([]string{"gate", "-tier", "smoke", "-deterministic", "-write-baseline", dir})
		if code != 0 {
			t.Fatalf("exit code %d, want 0", code)
		}
		raw, err := os.ReadFile(filepath.Join(dir, baselineFile("perf_sssp_random_2k")))
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = raw
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Error("deterministic perf manifests differ between invocations")
	}
}

// TestPerfGateEndToEnd: the smoke case gates clean against a baseline it
// just wrote, and a seeded slowdown past the wall band exits nonzero.
func TestPerfGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	if code := realMain([]string{"gate", "-tier", "smoke", "-write-baseline", dir}); code != 0 {
		t.Fatalf("write-baseline exit %d", code)
	}
	if code := realMain([]string{"gate", "-tier", "smoke", "-baseline-dir", dir, "-wall-tol", "10"}); code != 0 {
		t.Fatalf("clean gate exit %d, want 0", code)
	}
	if code := realMain([]string{"gate", "-tier", "smoke", "-baseline-dir", dir,
		"-wall-tol", "0.25", "-slowdown-ms", "500"}); code != 1 {
		t.Fatalf("slowdown gate exit %d, want 1", code)
	}
}

// TestPerfGateMissingBaseline: the gate fails against an empty baseline
// directory.
func TestPerfGateMissingBaseline(t *testing.T) {
	if code := realMain([]string{"gate", "-tier", "smoke", "-baseline-dir", t.TempDir()}); code != 1 {
		t.Fatalf("missing-baseline gate exit %d, want 1", code)
	}
}

// TestGateSmallTierMatchesCommitted: the small tier gates clean against
// the committed baselines, and the deterministic perf and energy
// manifests it writes are byte-identical to the committed files.
func TestGateSmallTierMatchesCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the three 100k-vertex perf cases")
	}
	dir := t.TempDir()
	if code := realMain([]string{"gate", "-tier", "small", "-deterministic",
		"-baseline-dir", repoRoot, "-out", dir}); code != 0 {
		t.Fatalf("small-tier gate exit %d, want 0", code)
	}
	cases, err := selectGateCases("small", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 9 {
		t.Errorf("small tier has %d cases, want 9", len(cases))
	}
	for _, c := range cases {
		if !strings.HasPrefix(c.name, "perf_") && !strings.HasPrefix(c.name, "energy_") {
			continue
		}
		fresh, err := os.ReadFile(filepath.Join(dir, baselineFile(c.name)))
		if err != nil {
			t.Fatal(err)
		}
		committed, err := os.ReadFile(filepath.Join(repoRoot, baselineFile(c.name)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fresh, committed) {
			t.Errorf("%s: fresh deterministic manifest differs from the committed baseline", c.name)
		}
	}
}

// TestGateTripsOnPerturbedSpikes: a baseline whose spike count was
// doubled fails the gate, while an untouched copy passes.
func TestGateTripsOnPerturbedSpikes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, baselineFile("snn_sssp")))
	if err != nil {
		t.Fatal(err)
	}
	clean, perturbed := t.TempDir(), t.TempDir()
	if err := os.WriteFile(filepath.Join(clean, baselineFile("snn_sssp")), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	stats := m["stats"].(map[string]any)
	stats["spikes"] = stats["spikes"].(float64) * 2
	bad, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(perturbed, baselineFile("snn_sssp")), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := realMain([]string{"gate", "-cases", "snn_sssp", "-baseline-dir", clean}); code != 0 {
		t.Fatalf("clean snn_sssp gate exit %d, want 0", code)
	}
	if code := realMain([]string{"gate", "-cases", "snn_sssp", "-baseline-dir", perturbed}); code != 1 {
		t.Fatalf("perturbed snn_sssp gate exit %d, want 1", code)
	}
}

// TestGateTripsOnTariffScale: a 10% tariff perturbation drifts against
// the committed energy baseline.
func TestGateTripsOnTariffScale(t *testing.T) {
	if code := realMain([]string{"gate", "-cases", "energy_sssp_random_256", "-baseline-dir", repoRoot,
		"-tariff-scale", "1100"}); code != 1 {
		t.Fatalf("tariff-scaled gate exit %d, want 1", code)
	}
}

// TestGateRegistryClaimsEveryBaseline: every committed BENCH_*.json is
// gated by exactly one case, and every case has a committed baseline.
func TestGateRegistryClaimsEveryBaseline(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	claims := map[string]int{}
	for _, c := range gateCases() {
		claims[baselineFile(c.name)]++
	}
	for _, f := range files {
		if n := claims[filepath.Base(f)]; n != 1 {
			t.Errorf("%s is claimed by %d gate cases, want 1", filepath.Base(f), n)
		}
		delete(claims, filepath.Base(f))
	}
	for name := range claims {
		t.Errorf("gate case baseline %s is not committed", name)
	}
}

// TestGateCompare: identical workloads pass; a counter drift or a seeded
// slowdown past the wall band fails; a missing baseline fails; a
// deterministic (wall-less) baseline leaves the wall band unapplied.
func TestGateCompare(t *testing.T) {
	c := harness.PerfCases[0]
	base, err := harness.RunPerfCase(c, harness.PerfOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := harness.RunPerfCase(c, harness.PerfOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r := compareGate(c.Name, base, fresh, 0, 10); !r.ok() || !r.wallApplied {
		t.Errorf("identical-workload gate failed: drifts=%v wall=%v applied=%v", r.drifts, r.wallExceeded, r.wallApplied)
	}

	bad, err := harness.RunPerfCase(c, harness.PerfOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad.Perf.Deliveries += 999
	bad.Stats.Deliveries += 999
	if r := compareGate(c.Name, base, bad, 0, 10); r.ok() {
		t.Error("gate accepted corrupted delivery totals")
	}

	slow, err := harness.RunPerfCase(c, harness.PerfOptions{SlowdownMS: 300})
	if err != nil {
		t.Fatal(err)
	}
	r := compareGate(c.Name, base, slow, 0, 0.5)
	if !r.wallExceeded {
		t.Errorf("300ms seeded slowdown passed the 1.5x wall band (base %.1fms, slow %.1fms)",
			base.Perf.WallMS, slow.Perf.WallMS)
	}
	if len(r.drifts) != 0 {
		t.Errorf("slowdown changed deterministic fields: %v", r.drifts)
	}

	if r := compareGate(c.Name, nil, fresh, 0, 0); r.ok() {
		t.Error("missing baseline passed")
	}

	detBase, err := harness.RunPerfCase(c, harness.PerfOptions{Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	if r := compareGate(c.Name, detBase, slow, 0, 0.1); r.wallApplied || r.wallExceeded || !r.ok() {
		t.Errorf("wall band applied against a deterministic (wall-less) baseline: %+v", r)
	}
}

// TestRenderGateTable: one row per result with its verdict, drifts
// below the table, and a footer naming the cases the wall band could
// not judge.
func TestRenderGateTable(t *testing.T) {
	c := harness.PerfCases[0]
	man, err := harness.RunPerfCase(c, harness.PerfOptions{Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := harness.RunPerfCase(c, harness.PerfOptions{Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	drifted.Stats.Spikes++
	out := renderGate([]*gateResult{
		compareGate("perf_ok", man, man, 0, 0.5),
		compareGate("perf_ghost", nil, man, 0, 0.5),
		compareGate("perf_drift", man, drifted, 0, 0.5),
	}, 0.5)
	for _, want := range []string{
		"perf_ok", "perf:" + c.Name, "ok", "NO BASELINE", "DRIFT (1)",
		"  perf_drift: stats.spikes",
		"wall band not applied (no wall data): perf_ok, perf_ghost, perf_drift",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("gate table missing %q:\n%s", want, out)
		}
	}
}
