// Package lint hosts the spaavet analyzers: project-specific static checks
// that enforce the paper's model invariants and the determinism guarantees
// the reproduced Tables 1-2 depend on, before any simulation runs. The
// analyzers are built on internal/lint/analysis (a stdlib-only analogue of
// golang.org/x/tools/go/analysis) and are executed by cmd/spaavet.
package lint

import "repro/internal/lint/analysis"

// All returns every registered analyzer in a stable order: the six
// syntactic model-invariant checks of PR 1, then the concurrency and
// hot-path discipline suite (guardedby, atomicmix, probealloc, wallclock).
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapIter, DelayBound, FloatEq, ErrFlush, RandSrc, MetricName,
		GuardedBy, AtomicMix, ProbeAlloc, WallClock,
	}
}

// Scopes restricts analyzers to the packages where their property matters.
// An analyzer absent from this map runs everywhere. Paths are exact import
// paths within this module.
var Scopes = map[string][]string{
	// Determinism-critical packages: anything whose iteration order can
	// leak into netlists, tables, CONGEST transcripts, or raster output.
	"mapiter": {
		"repro/internal/snn",
		"repro/internal/circuit",
		"repro/internal/core",
		"repro/internal/congest",
		"repro/internal/harness",
		// Serializes manifests, provenance logs, and regression diffs —
		// map-order nondeterminism there breaks replay and the baseline gate.
		"repro/internal/telemetry",
		// Prometheus text exposition is order-sensitive: families and
		// series must render in sorted order for scrapes to be diffable
		// and golden-testable.
		"repro/internal/metrics",
		// Serializes spaa-trace/v1 byte-identically under the trace gate —
		// map-order nondeterminism in span assembly or report rendering
		// breaks the double-run cmp.
		"repro/internal/trace",
	},
	// Simulation packages where exact float equality is a latent bug
	// (voltages decay through math.Pow and accumulate through sums).
	"floateq": {
		"repro/internal/snn",
		"repro/internal/circuit",
		"repro/internal/core",
		"repro/internal/congest",
	},
}

// Excluded carves packages out of an otherwise-global analyzer: the
// inverse of Scopes, for rules with a single designated exception.
var Excluded = map[string][]string{
	// internal/faults owns the repository's randomness discipline (named
	// splitmix64 streams); the rule protects everyone else from the
	// globally seeded math/rand state.
	"randsrc": {"repro/internal/faults"},
}

// InScope reports whether analyzer name should run on package path.
func InScope(name, pkgPath string) bool {
	for _, p := range Excluded[name] {
		if p == pkgPath {
			return false
		}
	}
	scope, ok := Scopes[name]
	if !ok {
		return true
	}
	for _, p := range scope {
		if p == pkgPath {
			return true
		}
	}
	return false
}
