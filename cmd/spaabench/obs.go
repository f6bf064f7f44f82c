package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/congest"
	"repro/internal/distance"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/snn"
	"repro/internal/telemetry"
)

// obs bundles the observability flags shared by the benchmark
// subcommands: -metrics (JSON run manifest), -trace (Chrome trace_event
// JSON for Perfetto), -cpuprofile and -memprofile (pprof). See
// docs/OBSERVABILITY.md for the formats.
type obs struct {
	metricsPath, tracePath, cpuPath, memPath string

	// deterministic zeroes the manifest's wall-clock fields so the
	// -metrics output is byte-reproducible (the spaa-faults/v1 property,
	// opt-in here).
	deterministic bool

	// force turns probing on without any output path — `spaabench
	// gate` runs its fixed cases through the same code paths and collects
	// the manifest in memory.
	force bool

	command string
	start   time.Time
	stopCPU func() error
	memDone bool

	// Rec is the probe sink handed to the instrumented engines; Man and
	// Tr accumulate what finish() writes out.
	Rec *telemetry.Recorder
	Man *telemetry.Manifest
	Tr  *telemetry.Tracer
}

// addObsFlags registers the observability flags on fs.
func addObsFlags(fs *flag.FlagSet) *obs {
	o := &obs{}
	fs.StringVar(&o.metricsPath, "metrics", "", "write a JSON run manifest to this file")
	fs.StringVar(&o.tracePath, "trace", "", "write Chrome trace_event JSON (open in Perfetto) to this file")
	fs.StringVar(&o.cpuPath, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&o.memPath, "memprofile", "", "write a pprof heap profile to this file")
	fs.BoolVar(&o.deterministic, "deterministic", false, "zero the manifest's wall-clock fields (created_unix_ms, wall_ms) so -metrics output is byte-reproducible")
	return o
}

// activeObs tracks bundles whose profiling outputs are not yet
// finalized. cmd* functions return errors to main, which calls os.Exit —
// skipping any deferred pprof finalization — so the exit path flushes
// this list instead (flushProfiles). Guarded by a mutex only for the
// sake of tests; the CLI itself is single-threaded here.
var (
	activeObsMu sync.Mutex
	activeObs   []*obs
)

// flushProfiles finalizes profiling for every obs bundle still open —
// the error-exit path's guarantee that a failing run never loses its
// -cpuprofile/-memprofile output. Flush errors are reported to stderr
// but do not change the exit code: the run's own error takes precedence.
func flushProfiles() {
	activeObsMu.Lock()
	pending := append([]*obs(nil), activeObs...)
	activeObsMu.Unlock()
	for _, o := range pending {
		if err := o.finishProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "spaabench: flushing profiles:", err)
		}
	}
}

// finishProfiles stops the CPU profile and writes the heap profile
// (each at most once), then deregisters the bundle.
func (o *obs) finishProfiles() error {
	var first error
	if o.stopCPU != nil {
		if err := o.stopCPU(); err != nil {
			first = err
		}
		o.stopCPU = nil
	}
	if o.memPath != "" && !o.memDone {
		o.memDone = true
		if err := telemetry.WriteHeapProfile(o.memPath); err != nil && first == nil {
			first = err
		}
	}
	activeObsMu.Lock()
	for i, a := range activeObs {
		if a == o {
			activeObs = append(activeObs[:i], activeObs[i+1:]...)
			break
		}
	}
	activeObsMu.Unlock()
	return first
}

// on reports whether any telemetry output was requested; engines are
// probed only in that case, keeping the default path on the nil-probe
// fast branch.
func (o *obs) on() bool { return o.force || o.metricsPath != "" || o.tracePath != "" }

// begin starts profiling and the wall clock. Call after flag parsing,
// before the measured work.
func (o *obs) begin(command string) error {
	o.command = command
	//lint:wallclock the manifest's wall_ms field measures real elapsed time by design
	o.start = time.Now()
	o.Rec = telemetry.NewRecorder()
	o.Man = telemetry.NewManifest("spaabench", command)
	o.Tr = telemetry.NewTracer()
	if o.cpuPath != "" {
		stop, err := telemetry.StartCPUProfile(o.cpuPath)
		if err != nil {
			return err
		}
		o.stopCPU = stop
	}
	if o.cpuPath != "" || o.memPath != "" {
		activeObsMu.Lock()
		activeObs = append(activeObs, o)
		activeObsMu.Unlock()
	}
	return nil
}

// snnProbes returns the recorder as an optional snn probe argument.
func (o *obs) snnProbes() []snn.StepProbe {
	if !o.on() {
		return nil
	}
	return []snn.StepProbe{o.Rec}
}

// congestProbes returns the recorder as an optional congest probe argument.
func (o *obs) congestProbes() []congest.Probe {
	if !o.on() {
		return nil
	}
	return []congest.Probe{o.Rec}
}

// fleetProbes returns the recorder as an optional fleet probe argument.
func (o *obs) fleetProbes() []fleet.Probe {
	if !o.on() {
		return nil
	}
	return []fleet.Probe{o.Rec}
}

// distanceProbe returns the recorder as a distance probe, or nil when
// telemetry is off.
func (o *obs) distanceProbe() distance.Probe {
	if !o.on() {
		return nil
	}
	return o.Rec
}

// setGraph records the workload graph's parameters in the manifest.
func (o *obs) setGraph(g *graph.Graph, seed int64, kind string) {
	o.Man.Graph = &telemetry.GraphParams{
		N: g.N(), M: g.M(), MaxLen: g.MaxLen(), Seed: seed, Kind: kind,
	}
}

// finalManifest folds the recorder into the manifest and stamps its
// wall time (zeroed under deterministic) — the manifest -metrics writes
// and `spaabench gate` diffs.
func (o *obs) finalManifest() *telemetry.Manifest {
	man := o.Man.AddRecorder(o.Rec)
	//lint:wallclock manifest finalization stamps real elapsed time; -deterministic zeroes it downstream
	man.Finalize(o.start, time.Since(o.start), telemetry.ManifestOptions{Deterministic: o.deterministic})
	return man
}

// finish stops profiling and writes every requested output.
func (o *obs) finish() error {
	if err := o.finishProfiles(); err != nil {
		return err
	}
	if o.metricsPath != "" {
		if err := o.finalManifest().WriteFile(o.metricsPath); err != nil {
			return err
		}
	}
	if o.tracePath != "" {
		o.Tr.AddRecorder(o.Rec)
		if err := o.Tr.WriteFile(o.tracePath); err != nil {
			return err
		}
	}
	return nil
}
