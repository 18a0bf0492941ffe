// Analyzer, Pass and Diagnostic: the framework half of the package,
// mirroring the golang.org/x/tools/go/analysis API shape so the analyzers
// read like standard vet passes while depending only on the standard
// library. Package documentation lives in doc.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test expectations.
	Name string
	// Doc is the one-paragraph description printed by fmossimvet -list:
	// the project invariant the analyzer guards.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// the pass. A returned error aborts the whole run (it means the
	// analyzer itself failed, not that the code is in violation).
	Run func(*Pass) error
}

// A Pass connects one Analyzer run to one loaded package.
type Pass struct {
	Analyzer *Analyzer

	// Fset, Files, Pkg and TypesInfo describe the package under analysis:
	// positions, parsed syntax (non-test sources only), the type-checked
	// package object, and the type information for every expression.
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned at a file/line/column. The JSON
// field names are the machine-readable contract of fmossimvet -json.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// All returns the full fmossimvet suite in a fixed order: every analyzer
// that gates the determinism contract. The annotation facility (reason
// checking, unused-annotation detection) is not an Analyzer — it is part
// of the driver and always runs.
func All() []*Analyzer {
	return []*Analyzer{Mapiter, Walltime, Ctxsettle, Mergeorder}
}
