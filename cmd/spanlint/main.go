// Command spanlint is the repo's static-analysis gate: a multichecker
// bundling the analyzers that mechanically enforce the contracts the
// tests cannot see — mutex pairing, mode and re-entrancy, and (inside
// lockorder) the lock-free Stats path; cancelable loops in ...Context
// methods; allocation-free hot paths; and request values kept out of
// allocation and overflow sinks. The path-sensitive analyzers (lockorder,
// taintflow) share one control-flow graph per function, built by the
// ctrlflow pass in internal/analysis.
//
// Three analyzers are interprocedural: hotalloc proves the functions
// annotated `spanlint:hotpath` transitively allocation-free, taintflow
// tracks attacker-controlled request values into allocation/overflow
// sinks, and lockorder follows `spanlint:nolock` through calls into
// other packages. They export per-function summaries as facts, kept in
// one in-process store and merged across the import graph.
//
// Usage:
//
//	spanlint [-json] [-ignores] packages...
//
// It checks the named packages with their test files, the way go vet
// does, and exits 2 on any finding or on any //spanlint:ignore that
// suppresses nothing. -json emits the diagnostics as NDJSON on stdout;
// -ignores also prints the audit listing of every //spanlint:ignore
// site with its justification.
//
// A diagnosis can be suppressed at the site with a justification:
//
//	//spanlint:ignore ctxloop bounded by shard count, finishes in microseconds
//
// The justification is mandatory; a bare ignore does not parse and the
// diagnostic stands.
package main

import (
	"spanners/internal/analysis"
	"spanners/internal/analyzers/ctxloop"
	"spanners/internal/analyzers/hotalloc"
	"spanners/internal/analyzers/lockorder"
	"spanners/internal/analyzers/taintflow"
)

func main() {
	analysis.Main(
		lockorder.Analyzer,
		ctxloop.Analyzer,
		hotalloc.Analyzer,
		taintflow.Analyzer,
	)
}
