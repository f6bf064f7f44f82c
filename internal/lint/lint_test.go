package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

func TestMapIter(t *testing.T) {
	analysistest.Run(t, lint.MapIter, filepath.Join("testdata", "mapiter"))
}

func TestDelayBound(t *testing.T) {
	analysistest.Run(t, lint.DelayBound, filepath.Join("testdata", "delaybound"))
}

func TestFloatEq(t *testing.T) {
	analysistest.Run(t, lint.FloatEq, filepath.Join("testdata", "floateq"))
}

func TestErrFlush(t *testing.T) {
	analysistest.Run(t, lint.ErrFlush, filepath.Join("testdata", "errflush"))
}

func TestRandSrc(t *testing.T) {
	analysistest.Run(t, lint.RandSrc, filepath.Join("testdata", "randsrc"))
}

func TestMetricName(t *testing.T) {
	analysistest.Run(t, lint.MetricName, filepath.Join("testdata", "metricname"))
}

func TestGuardedBy(t *testing.T) {
	analysistest.Run(t, lint.GuardedBy, filepath.Join("testdata", "guardedby"))
}

func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, lint.AtomicMix, filepath.Join("testdata", "atomicmix"))
}

func TestProbeAlloc(t *testing.T) {
	analysistest.Run(t, lint.ProbeAlloc, filepath.Join("testdata", "probealloc"))
}

func TestWallClock(t *testing.T) {
	analysistest.Run(t, lint.WallClock, filepath.Join("testdata", "wallclock"))
}

func TestScopes(t *testing.T) {
	cases := []struct {
		analyzer, pkg string
		want          bool
	}{
		{"mapiter", "repro/internal/snn", true},
		{"mapiter", "repro/internal/graph", false},
		{"mapiter", "repro/internal/harness", true},
		{"mapiter", "repro/internal/telemetry", true},
		{"mapiter", "repro/internal/metrics", true},   // exposition order is golden-tested
		{"mapiter", "repro/internal/trace", true},     // spaa-trace/v1 is byte-gated
		{"guardedby", "repro/internal/metrics", true}, // unscoped: runs everywhere
		{"wallclock", "repro/internal/graph", true},   // unscoped: the determinism guarantee is global
		{"probealloc", "repro/internal/telemetry", true},
		{"probealloc", "repro/internal/energy", true}, // unscoped: runs everywhere
		{"atomicmix", "repro/internal/snn", true},
		{"floateq", "repro/internal/telemetry", false},
		{"floateq", "repro/internal/congest", true},
		{"floateq", "repro/internal/harness", false},
		{"delaybound", "repro/internal/graph", true}, // unscoped: runs everywhere
		{"errflush", "repro/internal/snn", true},
		{"randsrc", "repro/internal/graph", true},   // unscoped: runs everywhere...
		{"randsrc", "repro/internal/faults", false}, // ...except the faults package itself
	}
	for _, c := range cases {
		if got := lint.InScope(c.analyzer, c.pkg); got != c.want {
			t.Errorf("InScope(%q, %q) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely registered", a)
		}
	}
	if n := len(lint.All()); n != 10 {
		t.Errorf("registered %d analyzers, want the full suite of 10", n)
	}
}

// TestScopesPathsExist asserts every import path named in Scopes and
// Excluded resolves to a real package directory in this module, so a
// package rename cannot silently un-scope an analyzer.
func TestScopesPathsExist(t *testing.T) {
	check := func(kind, name, path string) {
		t.Helper()
		rel, ok := strings.CutPrefix(path, "repro/")
		if !ok {
			t.Errorf("%s[%q] path %q is not module-local (want repro/... prefix)", kind, name, path)
			return
		}
		dir := filepath.Join("..", "..", filepath.FromSlash(rel))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("%s[%q] names %q but %s is not a directory: %v", kind, name, path, dir, err)
			return
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				return
			}
		}
		t.Errorf("%s[%q] names %q but %s contains no Go files", kind, name, path, dir)
	}
	for name, paths := range lint.Scopes {
		for _, p := range paths {
			check("Scopes", name, p)
		}
	}
	for name, paths := range lint.Excluded {
		for _, p := range paths {
			check("Excluded", name, p)
		}
	}
	// Scope keys must name registered analyzers, or the scope is dead.
	registered := map[string]bool{}
	for _, a := range lint.All() {
		registered[a.Name] = true
	}
	for name := range lint.Scopes {
		if !registered[name] {
			t.Errorf("Scopes entry %q names no registered analyzer", name)
		}
	}
	for name := range lint.Excluded {
		if !registered[name] {
			t.Errorf("Excluded entry %q names no registered analyzer", name)
		}
	}
}
