// Package simdeterminism flags constructs that break the simulator's
// bit-for-bit reproducibility promise (internal/sim): wall-clock reads,
// nondeterministically seeded global math/rand calls, and goroutines
// spawned outside the sim scheduler.
package simdeterminism

import (
	"go/ast"
	"go/types"
	"strings"

	"xssd/internal/analysis"
)

// Analyzer is the simdeterminism check.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc: `forbid wall-clock time, global math/rand and raw goroutines in simulator code

The simulation engine serializes all processes and orders events by
(virtual time, sequence number), so a run is a pure function of its seed.
time.Now (and friends), the globally seeded math/rand top-level functions,
and go statements that bypass (*sim.Env).Go all reintroduce host
nondeterminism. internal/sim itself and the cmd/ entry points are
exempt.`,
	Run: run,
}

// wallClock lists the time package functions that read or wait on the host
// clock. Pure constructors/converters (Duration, Unix, Date...) are fine.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// randOK lists math/rand (and v2) top-level functions that construct
// explicitly seeded generators rather than using the global source.
var randOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func exempt(path string) bool {
	return path == "xssd/internal/sim" || strings.HasPrefix(path, "xssd/cmd/")
}

func run(pass *analysis.Pass) error {
	if exempt(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "raw go statement bypasses the sim scheduler; spawn processes with (*sim.Env).Go")
			case *ast.CallExpr:
				checkCall(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil { // methods (e.g. (*rand.Rand).Intn) are fine
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClock[fn.Name()] {
			pass.Reportf(call.Pos(), "time.%s reads the wall clock and breaks run reproducibility; use sim virtual time (Env.Now/Proc.Sleep)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randOK[fn.Name()] {
			pass.Reportf(call.Pos(), "global %s.%s is nondeterministically seeded; use the environment's seeded source (sim.Env.Rand)", fn.Pkg().Name(), fn.Name())
		}
	}
}
