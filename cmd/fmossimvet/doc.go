// Command fmossimvet runs the project's determinism-contract analyzers
// (internal/analysis) over Go packages and exits non-zero on any
// diagnostic: a vet-style hard gate for the bit-identical merge
// guarantee of ARCHITECTURE.md.
//
// Usage:
//
//	fmossimvet [-json] [-C dir] [packages...]
//
// With no package arguments it checks ./... of the target module. The
// suite (see `fmossimvet -list`):
//
//	mapiter     no raw map iteration in result-affecting packages
//	walltime    no clock/randomness reads in the deterministic engine
//	ctxsettle   per-setting replay loops must poll cancellation
//	mergeorder  merge-feeding functions keep ascending fault-id order
//
// plus the annotation facility, which rejects reason-less
// //fmossim:nondeterminism-ok markers and reports stale (unused) ones.
//
// -json emits the diagnostics as a JSON array of
// {analyzer, file, line, col, message} objects on stdout — the exit
// status still reflects the diagnostic count — so tooling (benchtab-style
// dashboards, CI summarizers) can consume findings without scraping text
// output.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational failure
// (load or type-check error).
package main
