// The walltime analyzer: the deterministic engine must not read the
// clock or a random source. Wall-clock reads and math/rand inside the
// settle/replay/merge kernel are how "bit-identical for every worker
// count, batch size and shard split" quietly stops being true; timeout
// and jitter plumbing belongs to the service plane (server, distrib),
// which is allowlisted.
package analysis

import (
	"go/ast"
	"strconv"
)

// walltimePackages are the deterministic engine packages where clock and
// randomness reads are banned. The service plane (internal/server,
// internal/distrib), the benchmarking/stats tooling and the CLIs are
// deliberately absent: their timeouts, retry jitter and wall-clock
// reporting are legitimate.
var walltimePackages = pkgSet{
	"fmossim/internal/core":      true,
	"fmossim/internal/switchsim": true,
	"fmossim/internal/campaign":  true,
	"fmossim/internal/fault":     true,
	"fmossim/internal/logic":     true,
	"fmossim/internal/gates":     true,
	"fmossim/internal/netlist":   true,
	"fmossim/internal/march":     true,
	"fmossim/internal/ram":       true,
	"fmossim/internal/trace":     true,
	"fmossim/internal/serial":    true,
}

// bannedTimeFuncs are the time package functions that read the wall
// clock.
var bannedTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// Walltime bans time.Now/time.Since/time.Until calls and math/rand
// imports inside the deterministic engine packages.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc: "ban clock and randomness reads in the deterministic engine\n\n" +
		"time.Now/Since/Until and math/rand (v1 or v2) must not appear in the\n" +
		"engine packages; server/distrib timeout plumbing is allowlisted. A\n" +
		"deliberate exception (e.g. a caller-seeded *rand.Rand parameter)\n" +
		"carries //fmossim:nondeterminism-ok <reason>.",
	Run: runWalltime,
}

func runWalltime(pass *Pass) error {
	if !walltimePackages.has(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"import of %s in deterministic engine package %s; randomness belongs to callers (or annotate with %s <reason>)",
					path, pass.Pkg.Path(), AnnotationMarker)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObj(pass.TypesInfo, call)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if bannedTimeFuncs[obj.Name()] {
				pass.Reportf(call.Pos(),
					"time.%s in deterministic engine package %s reads the wall clock; results must not depend on it (or annotate with %s <reason>)",
					obj.Name(), pass.Pkg.Path(), AnnotationMarker)
			}
			return true
		})
	}
	return nil
}
