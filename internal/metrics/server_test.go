package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

func testManifest(spikes, deliveries, steps int64) *telemetry.Manifest {
	m := telemetry.NewManifest("spaabench", "sssp")
	m.Stats = &telemetry.RunStats{
		Spikes: spikes, Deliveries: deliveries, Steps: steps,
		MaxQueueDepth: 5, SilentStepsSkipped: 2,
	}
	return m
}

// scrapeValue extracts one series value from a Prometheus text scrape.
func scrapeValue(t *testing.T, body, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("series %s has non-integer value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not in scrape:\n%s", series, body)
	return 0
}

func TestServerEndpoints(t *testing.T) {
	srv := NewServer(NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Liveness first: zero runs.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK   bool  `json:"ok"`
		Runs int64 `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health.OK || health.Runs != 0 {
		t.Fatalf("healthz = %+v, want ok with 0 runs", health)
	}

	// Ingest two manifests over POST /runs.
	for i, m := range []*telemetry.Manifest{testManifest(100, 300, 40), testManifest(50, 150, 20)} {
		var body bytes.Buffer
		if err := m.Encode(&body); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/runs", "application/json", &body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d: status %d, want 202", i, resp.StatusCode)
		}
		var sum RunSummary
		if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if sum.Seq != int64(i+1) {
			t.Errorf("POST %d: seq %d, want %d", i, sum.Seq, i+1)
		}
	}

	// A malformed document counts as an ingest error, not a run.
	resp, err = http.Post(ts.URL+"/runs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed POST: status %d, want 400", resp.StatusCode)
	}

	// GET /runs reflects both runs in index and totals.
	resp, err = http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var idx runsResponse
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if idx.Count != 2 || idx.Totals.Runs != 2 {
		t.Fatalf("runs index = count %d totals %+v, want 2 runs", idx.Count, idx.Totals)
	}
	if idx.Totals.Spikes != 150 || idx.Totals.Deliveries != 450 || idx.Totals.Steps != 60 {
		t.Fatalf("totals %+v, want spikes 150 deliveries 450 steps 60", idx.Totals)
	}

	// /metrics carries the canonical families plus ingest accounting.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("scrape content type %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if got := scrapeValue(t, body, MetricSpikes); got != 150 {
		t.Errorf("scraped spikes = %d, want 150", got)
	}
	if got := scrapeValue(t, body, MetricDeliveries); got != 450 {
		t.Errorf("scraped deliveries = %d, want 450", got)
	}
	if got := scrapeValue(t, body, "spaa_runs_ingested_total"); got != 2 {
		t.Errorf("runs ingested = %d, want 2", got)
	}
	if got := scrapeValue(t, body, "spaa_ingest_errors_total"); got != 1 {
		t.Errorf("ingest errors = %d, want 1", got)
	}
	if got := scrapeValue(t, body, `spaa_runs_total{workload="sssp"}`); got != 2 {
		t.Errorf("per-workload runs = %d, want 2", got)
	}

	// The dashboard is served at / only.
	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), "spaabench live metrics") {
		t.Error("dashboard HTML missing")
	}
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", resp.StatusCode)
	}
}

// TestServerSSE subscribes to /events, ingests a run, and expects the
// hello event followed by the run event.
func TestServerSSE(t *testing.T) {
	srv := NewServer(NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}

	type event struct{ name, data string }
	events := make(chan event, 4)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		var cur event
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			case line == "" && cur.name != "":
				events <- cur
				cur = event{}
			}
		}
	}()

	wait := func(name string) event {
		t.Helper()
		select {
		case ev := <-events:
			if ev.name != name {
				t.Fatalf("got event %q, want %q", ev.name, name)
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %q event", name)
			return event{}
		}
	}
	wait("hello")

	srv.Ingest(testManifest(33, 99, 12))
	ev := wait("run")
	var sum RunSummary
	if err := json.Unmarshal([]byte(ev.data), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Spikes != 33 || sum.Seq != 1 {
		t.Errorf("run event %+v, want spikes 33 seq 1", sum)
	}
}

// TestSoakServeAcceptance is the PR's acceptance check: a concurrent
// soak campaign submits every run manifest to a serve daemon, and the
// /metrics scrape totals must equal the sum of the manifests' stats,
// which must equal the soak report's own accumulation.
func TestSoakServeAcceptance(t *testing.T) {
	srv := NewServer(NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 30 * time.Second}

	var mu sync.Mutex
	var manifests []*telemetry.Manifest
	rep, err := harness.Soak(harness.SoakConfig{
		Workers: 8, Iters: 4, Seed: 99,
		Deterministic: true,
		Submit: func(m *telemetry.Manifest) error {
			mu.Lock()
			manifests = append(manifests, m)
			mu.Unlock()
			var body bytes.Buffer
			if err := m.Encode(&body); err != nil {
				return err
			}
			resp, err := client.Post(ts.URL+"/runs", "application/json", &body)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusAccepted {
				return fmt.Errorf("POST /runs: %s", resp.Status)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 32 || rep.Errors != 0 {
		t.Fatalf("soak report: %d runs %d errors, want 32/0", rep.Runs, rep.Errors)
	}

	// Sum the emitted manifests independently.
	var wantSpikes, wantDeliveries, wantSteps int64
	for _, m := range manifests {
		if m.Stats == nil {
			continue
		}
		wantSpikes += m.Stats.Spikes
		wantDeliveries += m.Stats.Deliveries
		wantSteps += m.Stats.Steps
	}
	if wantSpikes == 0 {
		t.Fatal("soak produced no spikes; workload mix broken")
	}
	if rep.Stats.Spikes != wantSpikes || rep.Stats.Deliveries != wantDeliveries || rep.Stats.Steps != wantSteps {
		t.Fatalf("report totals (%d, %d, %d) != manifest sums (%d, %d, %d)",
			rep.Stats.Spikes, rep.Stats.Deliveries, rep.Stats.Steps, wantSpikes, wantDeliveries, wantSteps)
	}

	// The daemon's scrape and run index must agree with both.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if got := scrapeValue(t, body, MetricSpikes); got != wantSpikes {
		t.Errorf("scraped spikes = %d, manifests sum to %d", got, wantSpikes)
	}
	if got := scrapeValue(t, body, MetricDeliveries); got != wantDeliveries {
		t.Errorf("scraped deliveries = %d, manifests sum to %d", got, wantDeliveries)
	}
	if got := scrapeValue(t, body, MetricSteps); got != wantSteps {
		t.Errorf("scraped steps = %d, manifests sum to %d", got, wantSteps)
	}
	if got := scrapeValue(t, body, "spaa_runs_ingested_total"); got != rep.Runs {
		t.Errorf("runs ingested = %d, want %d", got, rep.Runs)
	}

	resp, err = http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var idx runsResponse
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if idx.Totals.Spikes != wantSpikes || idx.Totals.Runs != rep.Runs {
		t.Errorf("run-index totals %+v disagree with manifests (spikes %d, runs %d)",
			idx.Totals, wantSpikes, rep.Runs)
	}
}

// TestScrapeDuringSoak scrapes /metrics while a soak mutates the
// registry through a live bridge — the -race CI job's target.
func TestScrapeDuringSoak(t *testing.T) {
	srv := NewServer(NewRegistry())
	bridge := NewBridge(srv.Registry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := harness.Soak(harness.SoakConfig{
			Workers: 4, Iters: 4, Seed: 5,
			Probes: bridge,
			Submit: func(m *telemetry.Manifest) error { srv.Ingest(m); return nil },
		}); err != nil {
			t.Error(err)
		}
	}()
	for {
		select {
		case <-done:
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !strings.Contains(string(raw), MetricSpikes) {
				t.Error("final scrape lost the spike family")
			}
			return
		default:
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}
