// The planecanon analyzer: the two-plane ternary encoding is only
// canonical if nobody writes the planes by hand. switchsim.LanePlanes
// keeps the V bit clear wherever the X bit is set; its two writers, Set
// and Clear, preserve that form, and the word-wide comparison of the
// packed fault engine (EqValueMask) is correct only against canonical
// planes. A direct store to .V or .X from outside internal/switchsim can
// construct a non-canonical pair that compares wrong in EqValueMask — a
// silent merge-determinism break.
package analysis

import (
	"go/ast"
	"go/types"
)

// switchsimPath is the only package allowed to touch the raw planes.
const switchsimPath = "fmossim/internal/switchsim"

// Planecanon flags direct writes (assignments, compound assignments,
// increments, address-taking) to the V/X fields of switchsim.LanePlanes
// outside internal/switchsim.
var Planecanon = &Analyzer{
	Name: "planecanon",
	Doc: "no raw LanePlanes plane writes outside internal/switchsim\n\n" +
		"Direct stores to LanePlanes.V/.X can break the canonical two-plane\n" +
		"encoding (V clear wherever X is set) that the word-wide EqValueMask\n" +
		"relies on; use Set/Clear.",
	Run: runPlanecanon,
}

func runPlanecanon(pass *Pass) error {
	if pass.Pkg.Path() == switchsimPath {
		return nil
	}
	report := func(se *ast.SelectorExpr, how string) {
		pass.Reportf(se.Pos(),
			"%s of LanePlanes.%s outside %s breaks the canonical two-plane encoding; use Set/Clear",
			how, se.Sel.Name, switchsimPath)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if se := planeFieldSelector(pass.TypesInfo, lhs); se != nil {
						report(se, "direct write")
					}
				}
			case *ast.IncDecStmt:
				if se := planeFieldSelector(pass.TypesInfo, n.X); se != nil {
					report(se, "direct write")
				}
			case *ast.UnaryExpr:
				if n.Op.String() == "&" {
					if se := planeFieldSelector(pass.TypesInfo, n.X); se != nil {
						report(se, "taking the address")
					}
				}
			}
			return true
		})
	}
	return nil
}

// planeFieldSelector returns e as a selector of the V or X field of
// switchsim.LanePlanes, or nil.
func planeFieldSelector(info *types.Info, e ast.Expr) *ast.SelectorExpr {
	se, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || (se.Sel.Name != "V" && se.Sel.Name != "X") {
		return nil
	}
	sel, ok := info.Selections[se]
	if !ok || sel.Kind() != types.FieldVal {
		return nil
	}
	if !isNamed(sel.Recv(), switchsimPath, "LanePlanes") {
		return nil
	}
	return se
}
