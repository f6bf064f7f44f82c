package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// RandSrc forbids math/rand's package-level (globally seeded) state:
// rand.Intn, rand.Float64, rand.Seed, rand.Shuffle and friends. Global
// generator state is shared across the whole process and its sequence
// depends on call interleaving, so any draw from it poisons the
// (seed → bit-identical run) guarantee the replay and baseline gates —
// and the fault-injection manifests — rely on. Explicit sources
// (rand.New(rand.NewSource(seed)) and methods on the resulting
// *rand.Rand) are fine; internal/faults' named splitmix64 streams are
// the preferred primitive for anything that feeds a manifest.
var RandSrc = &analysis.Analyzer{
	Name: "randsrc",
	Doc:  "forbids math/rand global-state functions (rand.Intn etc.); use a seeded rand.New(rand.NewSource(...)) or faults.NewStream instead",
	Run:  runRandSrc,
}

// randSrcAllowed lists the math/rand package-level functions that carry
// no hidden state: constructors returning explicitly seeded generators.
var randSrcAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2 constructors.
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runRandSrc(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		path := fn.Pkg().Path()
		if path != "math/rand" && path != "math/rand/v2" {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return true // methods on an explicit *rand.Rand are fine
		}
		if randSrcAllowed[fn.Name()] {
			return true
		}
		pass.Report(sel.Sel.Pos(),
			"use of global math/rand state %s.%s breaks seed-reproducibility; draw from rand.New(rand.NewSource(seed)) or a faults.Stream instead",
			path, fn.Name())
		return true
	})
	return nil
}
