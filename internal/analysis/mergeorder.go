// The mergeorder analyzer: everything feeding campaign.Merge — and every
// construction of a core.BatchResult — must produce circuits in
// ascending-id order. Merge is the single determinism point of the whole
// system (one machine or a fleet merges to the same Result only because
// every batch's slices are indexed by fault id), so a merge-feeding
// function that builds slices from a map iteration, or appends to a
// shared slice from concurrently scheduled goroutines, reorders circuits
// under the merge and breaks bit-identity.
package analysis

import (
	"go/ast"
	"go/types"
)

// mergeTypePkg/mergeFuncPkg locate the contract's anchors; fanoutPkg is
// the pool whose Each runs its last argument on spawned goroutines.
const (
	mergeTypePkg = "fmossim/internal/core"     // core.BatchResult
	mergeFuncPkg = "fmossim/internal/campaign" // campaign.Merge
	fanoutPkg    = "fmossim/internal/fanout"   // fanout.Each
)

// Mergeorder flags, inside functions that construct core.BatchResult
// values (or call campaign.Merge), map-sourced iteration without a
// subsequent sort and concurrent appends to shared slices.
var Mergeorder = &Analyzer{
	Name: "mergeorder",
	Doc: "merge-feeding functions must order circuits by ascending id\n\n" +
		"Functions that build core.BatchResult values or call campaign.Merge\n" +
		"may not iterate maps (unless collect-then-sort) or append to shared\n" +
		"slices from spawned goroutines (go statements and fanout.Each\n" +
		"callbacks): batch slices are indexed by fault id and the merge's\n" +
		"bit-identity depends on that order.",
	Run: runMergeorder,
}

func runMergeorder(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !feedsMerge(pass.TypesInfo, fd) {
				continue
			}
			checkMergeFeeder(pass, fd)
		}
	}
	return nil
}

// feedsMerge reports whether the function touches the merge contract: it
// references the core.BatchResult type anywhere (construction, fields,
// slices of results) or calls campaign.Merge.
func feedsMerge(info *types.Info, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil {
				if tn, ok := obj.(*types.TypeName); ok && tn.Pkg() != nil &&
					tn.Pkg().Path() == mergeTypePkg && tn.Name() == "BatchResult" {
					found = true
				}
			}
		case *ast.CallExpr:
			if isPkgFunc(calleeObj(info, n), mergeFuncPkg, "Merge") {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkMergeFeeder reports order hazards inside one merge-feeding
// function.
func checkMergeFeeder(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isMapType(info, n.X) && !rangeCollectsSorted(info, fd, n) {
				pass.Reportf(n.Pos(),
					"map-sourced iteration in merge-feeding function %s: circuits must feed campaign.Merge/BatchResult in ascending-id order (sort the keys, or annotate with %s <reason>)",
					fd.Name.Name, AnnotationMarker)
			}
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				reportSharedAppends(pass, fd, lit)
			}
		case *ast.CallExpr:
			// fanout.Each spawns the goroutines itself: its callback is
			// as concurrent as a go'd literal.
			if isPkgFunc(calleeObj(info, n), fanoutPkg, "Each") && len(n.Args) > 0 {
				if lit, ok := ast.Unparen(n.Args[len(n.Args)-1]).(*ast.FuncLit); ok {
					reportSharedAppends(pass, fd, lit)
				}
			}
		}
		return true
	})
}

// reportSharedAppends flags appends inside a spawned literal (go'd, or a
// fanout.Each callback) whose target slice is declared outside the
// literal: the append order then depends on goroutine scheduling.
func reportSharedAppends(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) {
	info := pass.TypesInfo
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" || info.Uses[id] != types.Universe.Lookup("append") {
			return true
		}
		obj := info.ObjectOf(lhs)
		if obj == nil || obj.Parent() == nil {
			return true
		}
		// Declared outside the literal ⇒ shared across goroutines.
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			pass.Reportf(as.Pos(),
				"append to %s (declared outside the goroutine) in merge-feeding function %s: append order is scheduling-dependent; write to an index owned by this shard instead",
				lhs.Name, fd.Name.Name)
		}
		return true
	})
}
