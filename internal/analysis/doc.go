// Package analysis is the fmossimvet suite: custom static analyzers that
// mechanically enforce the bit-identical merge-determinism contract of
// ARCHITECTURE.md, plus the framework they run on.
//
// Every performance refactor of the engine (lane packing, worklist
// relaxation, distributed sharding) must preserve the same guarantee:
// identical detections, records and deterministic statistics for every
// worker count, batch size and shard split. Equivalence tests catch a
// violation only when a workload happens to trigger it; these analyzers
// turn the contract's load-bearing clauses into compile-time-style gates
// that fail CI on the pattern itself:
//
//   - mapiter — no raw map iteration in result-affecting packages
//     (collect-then-sort is recognized and allowed).
//   - walltime — no time.Now/Since/Until or math/rand in the
//     deterministic engine packages (server/distrib timeout plumbing is
//     allowlisted by package).
//   - ctxsettle — per-setting replay loops in context-carrying functions
//     must poll ctx.Err() or invoke the OnObserve hook (the sub-second
//     cancellation guarantee).
//   - mergeorder — functions feeding campaign.Merge/core.BatchResult may
//     not build circuit slices from map iteration or concurrent appends.
//
// A deliberate exception is annotated at the offending line with
//
//	//fmossim:nondeterminism-ok <reason>
//
// The reason string is mandatory (a bare marker is itself a diagnostic
// and suppresses nothing), and an annotation on a line that no longer
// triggers any analyzer is reported as unused, so stale exceptions are
// flushed out mechanically.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, diagnostics) but depends only on the standard
// library: packages are listed and compiled via `go list -export`, and
// dependencies are imported from the compiler's export data while the
// target packages are type-checked from source. The analysistest
// subpackage runs analyzers over testdata fixture packages with
// `// want "regexp"` expectations, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// The suite is surfaced by cmd/fmossimvet and gated in CI; the
// "mechanically enforced invariants" table in ARCHITECTURE.md maps each
// analyzer to the contract clause it guards. TestAllMatchesDocumentedSuite
// holds All, the list above, the command's usage text and that table to
// the same names.
package analysis
