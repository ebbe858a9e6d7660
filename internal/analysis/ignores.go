package analysis

import (
	"fmt"
	"go/token"
	"io"
)

// IgnoreSite is one //spanlint:ignore suppression found in the source:
// the place, the analyzer names it shields, the justification the author
// gave, and whether the suppression still does anything. The audit
// listing (spanlint -ignores) exists so the waivers the lint gate is
// honoring stay reviewable instead of rotting silently in the tree.
type IgnoreSite struct {
	Pos           token.Pos
	File          string
	Line          int
	Analyzers     string // the comma list exactly as written
	Justification string
	// Used reports that the site suppressed at least one diagnostic when
	// the analyzers ran over its package. A site that is not Used is
	// stale: the code it excused has changed (or the analyzer has), and
	// the waiver should be deleted rather than left to shield a future
	// regression nobody reviews.
	Used bool
}

// ignoreSites lists the suppression sites in pkg's files, using the same
// parser the suppression pass applies, so the audit and the gate can
// never disagree about what counts as an ignore. used holds the
// "file:line" of every site that suppressed a diagnostic (RunConfig's
// UsedIgnores).
func ignoreSites(pkg *Package, used map[string]bool) []IgnoreSite {
	var sites []IgnoreSite
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, justification, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				sites = append(sites, IgnoreSite{
					Pos:           c.Pos(),
					File:          pos.Filename,
					Line:          pos.Line,
					Analyzers:     names,
					Justification: justification,
					Used:          used[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)],
				})
			}
		}
	}
	return sites
}

// PrintIgnores writes the audit listing, one site per line
// (file:line: names: justification), flagging stale sites.
func PrintIgnores(w io.Writer, sites []IgnoreSite) {
	for _, s := range sites {
		marker := ""
		if !s.Used {
			marker = " [STALE — suppresses nothing]"
		}
		fmt.Fprintf(w, "%s:%d: %s: %s%s\n", s.File, s.Line, s.Analyzers, s.Justification, marker)
	}
}
