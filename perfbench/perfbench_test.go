package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/classic"
	"repro/internal/graph"
)

// Seconds-long sizes of the three workloads, for tests.
var (
	ssspSmall  = size{N: 2000, M: 8000, U: 8}
	khopSmall  = size{N: 120, M: 480, U: 8, K: 4}
	serveSmall = size{N: 128, M: 512, U: 8, K: 4}
)

func smallWorkloads() []workload { return newWorkloads(ssspSmall, khopSmall, serveSmall) }

// runCLI runs the benchmark command line and returns its exit code,
// standard output and the decoded verdict line.
func runCLI(t *testing.T, ws []workload, args ...string) (int, string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--out", t.TempDir())
	code := realMain(ws, args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil && code == 0 {
		t.Fatalf("last line is not a verdict: %q (%v)\nstderr: %s", lines[len(lines)-1], err, stderr.String())
	}
	return code, stdout.String(), r
}

// TestWorkloadsPrintEveryMetric runs each workload briefly, untraced and
// traced, and checks that every metric of the mode's table prints by
// name with its unit, every answer verified, and ok_ratio is 1.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range smallWorkloads() {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+traced, func(t *testing.T) {
				code, stdout, r := runCLI(t, smallWorkloads(), "--workload", w.name, "--seed", "7", "--seconds", "0.6", "--trace", traced)
				if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("exit %d, verdict %+v\n%s", code, r, stdout)
				}
				defs := endToEnd
				if traced == "1" {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("verdict has %d metrics, want %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
					line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(d.Name) + ` +\S+ ` + regexp.QuoteMeta(d.Unit) + `$`)
					if !line.MatchString(stdout) {
						t.Errorf("no printed line for metric %s with unit %s", d.Name, d.Unit)
					}
				}
				if traced == "0" && r.Metrics["ok_ratio"].Value != 1 {
					t.Errorf("ok_ratio = %v, want 1", r.Metrics["ok_ratio"].Value)
				}
				if traced == "0" && r.Metrics["setup_s"].Value <= 0 {
					t.Errorf("setup_s = %v, want > 0", r.Metrics["setup_s"].Value)
				}
				if traced == "0" && !regexp.MustCompile(`(?m)^tail op_tail_ms \S+ ms: p\S+ of \d+ samples \(\d+ beyond\)$`).MatchString(stdout) {
					t.Error("no op_tail_ms line with its percentile and sample count")
				}
				if !strings.Contains(stdout, "snn-fingerprint {") {
					t.Error("no snn counter fingerprint printed")
				}
				if traced == "1" && !strings.Contains(stdout, "tracing overhead") {
					t.Error("traced run printed no self-time report")
				}
			})
		}
	}
}

// TestSNNCountersRepeat: two runs with the same seed print identical
// engine counters, whatever their timings.
func TestSNNCountersRepeat(t *testing.T) {
	for _, w := range smallWorkloads()[:2] {
		var fp [2]string
		for i := range fp {
			code, stdout, _ := runCLI(t, smallWorkloads(), "--workload", w.name, "--seed", "3", "--seconds", "0.1")
			if code != 0 {
				t.Fatalf("%s: exit %d", w.name, code)
			}
			fp[i] = regexp.MustCompile(`snn-fingerprint .*`).FindString(stdout)
		}
		if fp[0] == "" || fp[0] != fp[1] {
			t.Errorf("%s: counters differ between runs: %q vs %q", w.name, fp[0], fp[1])
		}
	}
}

// TestPerturbedDistancesFailTheRun feeds the checker a distance vector
// with one entry off by one: the verdict must be incorrect and the
// command must exit non-zero.
func TestPerturbedDistancesFailTheRun(t *testing.T) {
	g := graph.RandomGnm(64, 256, graph.Uniform(8), 1, true)
	want := classic.Dijkstra(g, 0).Dist
	got := append([]int64(nil), want...)
	got[17]++

	var v verifier
	if !v.check("exact", want, want) {
		t.Fatal("checker rejected the reference itself")
	}
	if v.check("perturbed", got, want) {
		t.Fatal("checker accepted a perturbed distance vector")
	}
	if v.correct() || v.failed != 1 || v.attempted != 2 {
		t.Fatalf("verifier = %+v, want incorrect with 1 of 2 failed", v)
	}

	perturbed := workload{"perturbed", func(runOpts) (*runOutput, error) {
		out := &runOutput{vals: map[string]float64{}}
		for _, d := range endToEnd {
			out.vals[d.Name] = 1
		}
		out.check.check("perturbed", got, want)
		return out, nil
	}}
	code, stdout, r := runCLI(t, []workload{perturbed}, "--workload", "perturbed")
	if code == 0 || r.Correct || r.Failed != 1 {
		t.Fatalf("exit %d with verdict %+v, want a failed run\n%s", code, r, stdout)
	}
}

func TestCheckResponseRejectsPerturbedBody(t *testing.T) {
	want := []int64{0, 3, 5}
	body := func(dist []int64) []byte {
		b, _ := json.Marshal(map[string]any{"mode": "exact", "dist": dist})
		return b
	}
	var v verifier
	if _, ok := checkResponse(&v, "good", readAnswer(200, body(want), nil), sumDist(want)); !ok {
		t.Fatal("rejected a correct response")
	}
	if _, ok := checkResponse(&v, "bad", readAnswer(200, body([]int64{0, 3, 6}), nil), sumDist(want)); ok {
		t.Fatal("accepted a perturbed response")
	}
	if _, ok := checkResponse(&v, "approx", readAnswer(200, []byte(`{"mode":"approx","dist":[0,3,5]}`), nil), sumDist(want)); ok {
		t.Fatal("accepted an answer in a mode that guarantees nothing")
	}
	if _, ok := checkResponse(&v, "shed", readAnswer(429, []byte("overloaded"), nil), sumDist(want)); ok {
		t.Fatal("accepted a refused query")
	}
	if v.correct() || v.wrong != 1 || v.failed != 3 {
		t.Fatalf("verifier = %+v, want 1 wrong answer and 3 failures", v)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	got := tail(xs)
	if got.Value != 90 || got.Percentile != 90 || got.Beyond != 10 || got.Samples != 100 {
		t.Errorf("tail of 1..100 = %+v, want 90 at p90 with 10 beyond", got)
	}
	if got := tail(xs[:21]); got.Value != median(xs[:21]) {
		t.Errorf("tail of 21 samples = %v, want the median %v", got.Value, median(xs[:21]))
	}
	if got := tail(xs[:5]); got.Beyond != 0 {
		t.Errorf("tail of 5 samples claims %d beyond", got.Beyond)
	}
}

func TestSelfMs(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", DurUs: 1000},
		{ID: 1, Parent: 0, Name: "core.compile", DurUs: 400},
		{ID: 2, Parent: 0, Name: "snn.run", DurUs: 500},
	}
	self := selfMs(spans)
	if self["op"][0] != 0.1 || self["core.compile"][0] != 0.4 || self["snn.run"][0] != 0.5 {
		t.Errorf("self times = %v", self)
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := record{Fingerprint: hostFingerprint("sssp_batch", 1), SNN: snnCounters{Ops: 3, Spikes: 10}}
	b := a
	b.Fingerprint.CPU = "another CPU"
	var buf bytes.Buffer
	if err := compareRecords(&buf, a, b); !errors.Is(err, errHostMismatch) {
		t.Fatalf("compare across hosts: %v, want %v", err, errHostMismatch)
	}
	if !strings.Contains(buf.String(), "MISMATCH cpu") {
		t.Errorf("mismatch not reported: %q", buf.String())
	}
	b = a
	b.SNN.Spikes++
	if err := compareRecords(&buf, a, b); err == nil {
		t.Error("compare accepted differing engine counters on the same seed")
	}
	if err := compareRecords(&buf, a, a); err != nil {
		t.Errorf("compare of a record with itself: %v", err)
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the metric
// tables and workloads the benchmark prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ", "), workloadNames(smallWorkloads()); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
			t.Errorf("BENCHMARK.json %s = %v\nbenchmark prints %v", c.name, c.got, c.want)
		}
	}
}
