// Command spanlint is the repo's static-analysis gate: a multichecker
// bundling the analyzers that mechanically enforce the contracts the
// tests cannot see — mutex pairing, mode and re-entrancy, and (inside
// lockorder) the lock-free Stats path; cancelable loops in ...Context
// methods; allocation-free hot paths; and request values kept out of
// allocation and overflow sinks. The path-sensitive analyzers (lockorder,
// taintflow) share one control-flow graph per function, built by the
// ctrlflow pass in internal/analysis.
//
// Two analyzers are interprocedural: hotalloc proves the functions
// annotated `spanlint:hotpath` transitively allocation-free, and
// taintflow tracks attacker-controlled request values into
// allocation/overflow sinks. Both export per-function summaries as
// facts, serialized per package (.vetx files under go vet, a shared
// in-process store standalone) and merged across the import graph.
//
// It runs two ways:
//
//	go vet -vettool=$(command -v spanlint) ./...   # as a vet tool (CI)
//	spanlint ./...                                 # standalone
//
// `spanlint -json pkgs...` emits diagnostics as NDJSON on stdout;
// `spanlint -ignores pkgs...` prints the //spanlint:ignore audit
// listing instead of checking.
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
