package spanner_test

import (
	"strings"
	"testing"

	"spanners/internal/gen"
	"spanners/spanner"
)

// churnBases are the structural Figure-1 variants of the query-churn
// workload (perfbench): tag lands inside a character class, so a fresh tag
// changes the query text and the cache key but not the matches on a
// contacts document.
var churnBases = []func(tag string) string{
	func(t string) string {
		return `.*!name{[A-Z][a-z` + t + `]+} <(!email{[a-z0-9]+@[a-z0-9]+(\.[a-z0-9]+)+}|!phone{[0-9]+-[0-9]+})>.*`
	},
	func(t string) string {
		return `.*!name{[A-Z][a-z` + t + `]+} <!email{[a-z0-9]+@[a-z0-9]+(\.[a-z0-9]+)+}>.*`
	},
	func(t string) string {
		return `.*!name{[A-Z][a-z` + t + `]+} <!phone{[0-9]+-[0-9]+}>.*`
	},
	func(t string) string {
		return `.*<(!email{[a-z0-9` + t + `]+@[a-z0-9]+(\.[a-z0-9]+)+}|!phone{[0-9]+-[0-9]+})>.*`
	},
}

// churnHot is the size of query-churn's hot set: ids 1..churnHot are
// the queries it repeats.
const churnHot = 8

// churnPool are bytes gen.Contacts never emits.
const churnPool = "_#=~;:'%"

// churnTag renders id in base len(churnPool) over churnPool; distinct ids
// give distinct tags, and id 0 gives "".
func churnTag(id int) string {
	var b []byte
	for ; id > 0; id /= len(churnPool) {
		b = append(b, churnPool[id%len(churnPool)])
	}
	return string(b)
}

// churnQuery returns the query-churn request text for id, as spannerd
// receives it: a /…/ literal of base (id/2) mod 4 with tag churnTag(id),
// in strict mode for even ids and lazy mode for odd ones.
func churnQuery(id int) (string, spanner.Mode) {
	p := churnBases[id/2%len(churnBases)](churnTag(id))
	return "/" + strings.ReplaceAll(p, "/", `\/`) + "/", spanner.Mode(id % 2)
}

// compileChurn is one query-churn cache miss: parse, render the canonical
// cache key, compile.
func compileChurn(tb testing.TB, id int) *spanner.Spanner {
	src, mode := churnQuery(id)
	q, err := spanner.ParseQuery(src)
	if err != nil {
		tb.Fatal(err)
	}
	_ = mode.String() + "\x00" + q.String()
	s, err := q.Compile(spanner.WithMode(mode))
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// compileShape is the part of Stats that describes the compiled automata.
type compileShape struct {
	VAStates, VATransitions   int
	EVAStates, EVATransitions int
	Sequentialized            bool
	DetStates                 int
	ByteClasses               int
	DenseTableBytes           int
	LazyDetStates             int // lazy DetStates after one evaluation of doc
}

// TestCompileShapeGolden pins the size of every automaton the pipeline
// builds — VA, sequential eVA, strict table, lazy table after one document
// — for the paper's patterns, the query-churn family and one join and one
// projection. Compilation may get cheaper, but it must build exactly these
// automata.
func TestCompileShapeGolden(t *testing.T) {
	contacts := gen.Contacts(100, 5)
	nested := gen.DenseMarkers(256, 1)
	sparse := gen.SparseMatches(4096, 0.01, 7)
	ab := []byte("aabab")
	join := `join(/` + gen.Figure1Pattern() + `/, /.*@.*/)`
	project := `project[name](union(/` + gen.Figure1Pattern() + `/, /.*!name{[A-Z][a-z]+}:.*/))`
	cases := []struct {
		name  string
		src   string
		query bool // compile src with ParseQuery + Query.Compile
		doc   []byte
		want  compileShape
	}{
		{"figure1", gen.Figure1Pattern(), false, contacts, compileShape{VAStates: 31, VATransitions: 52, EVAStates: 31, EVATransitions: 52, Sequentialized: false, DetStates: 31, ByteClasses: 10, DenseTableBytes: 2240, LazyDetStates: 28}},
		{"churn0", churnBases[0](""), false, contacts, compileShape{VAStates: 31, VATransitions: 52, EVAStates: 31, EVATransitions: 52, Sequentialized: false, DetStates: 31, ByteClasses: 10, DenseTableBytes: 2240, LazyDetStates: 28}},
		{"churn0/tag", churnBases[0]("_#"), false, contacts, compileShape{VAStates: 31, VATransitions: 52, EVAStates: 31, EVATransitions: 52, Sequentialized: false, DetStates: 31, ByteClasses: 11, DenseTableBytes: 2240, LazyDetStates: 28}},
		{"churn1", churnBases[1](""), false, contacts, compileShape{VAStates: 24, VATransitions: 40, EVAStates: 24, EVATransitions: 40, Sequentialized: false, DetStates: 24, ByteClasses: 9, DenseTableBytes: 1792, LazyDetStates: 21}},
		{"churn1/tag", churnBases[1]("=~"), false, contacts, compileShape{VAStates: 24, VATransitions: 40, EVAStates: 24, EVATransitions: 40, Sequentialized: false, DetStates: 24, ByteClasses: 10, DenseTableBytes: 1792, LazyDetStates: 21}},
		{"churn2", churnBases[2](""), false, contacts, compileShape{VAStates: 18, VATransitions: 26, EVAStates: 18, EVATransitions: 26, Sequentialized: false, DetStates: 18, ByteClasses: 8, DenseTableBytes: 832, LazyDetStates: 18}},
		{"churn2/tag", churnBases[2](";"), false, contacts, compileShape{VAStates: 18, VATransitions: 26, EVAStates: 18, EVATransitions: 26, Sequentialized: false, DetStates: 18, ByteClasses: 8, DenseTableBytes: 832, LazyDetStates: 18}},
		{"churn3", churnBases[3](""), false, contacts, compileShape{VAStates: 25, VATransitions: 44, EVAStates: 25, EVATransitions: 44, Sequentialized: false, DetStates: 25, ByteClasses: 8, DenseTableBytes: 1056, LazyDetStates: 22}},
		{"churn3/tag", churnBases[3](":'%"), false, contacts, compileShape{VAStates: 25, VATransitions: 44, EVAStates: 25, EVATransitions: 44, Sequentialized: false, DetStates: 25, ByteClasses: 9, DenseTableBytes: 1856, LazyDetStates: 22}},
		{"nested2", gen.NestedPattern(2), false, nested, compileShape{VAStates: 10, VATransitions: 18, EVAStates: 10, EVATransitions: 30, Sequentialized: false, DetStates: 10, ByteClasses: 1, DenseTableBytes: 296, LazyDetStates: 10}},
		{"sparse", gen.SparsePattern, false, sparse, compileShape{VAStates: 11, VATransitions: 15, EVAStates: 11, EVATransitions: 15, Sequentialized: false, DetStates: 11, ByteClasses: 4, DenseTableBytes: 432, LazyDetStates: 11}},
		{"churn0/query", `/` + churnBases[0]("_#") + `/`, true, contacts, compileShape{VAStates: 0, VATransitions: 0, EVAStates: 31, EVATransitions: 52, Sequentialized: false, DetStates: 31, ByteClasses: 11, DenseTableBytes: 2240, LazyDetStates: 28}},
		{"starcapture", `(!x{a+}b)*`, false, ab, compileShape{VAStates: 6, VATransitions: 8, EVAStates: 6, EVATransitions: 7, Sequentialized: true, DetStates: 6, ByteClasses: 3, DenseTableBytes: 352, LazyDetStates: 6}},
		{"starcapture/query", `/(!x{a+}b)*/`, true, ab, compileShape{VAStates: 0, VATransitions: 0, EVAStates: 6, EVATransitions: 7, Sequentialized: true, DetStates: 6, ByteClasses: 3, DenseTableBytes: 352, LazyDetStates: 6}},
		{"join", join, true, contacts, compileShape{VAStates: 0, VATransitions: 0, EVAStates: 66, EVATransitions: 114, Sequentialized: false, DetStates: 59, ByteClasses: 10, DenseTableBytes: 4032, LazyDetStates: 47}},
		{"join/shared", `join(/.*!x{a+}.*/, /(a|b)*!x{ab*}(a|b)*/)`, true, ab, compileShape{VAStates: 0, VATransitions: 0, EVAStates: 8, EVATransitions: 17, Sequentialized: true, DetStates: 8, ByteClasses: 3, DenseTableBytes: 384, LazyDetStates: 8}},
		{"project", project, true, contacts, compileShape{VAStates: 0, VATransitions: 0, EVAStates: 35, EVATransitions: 61, Sequentialized: false, DetStates: 29, ByteClasses: 11, DenseTableBytes: 2112, LazyDetStates: 24}},
	}
	compile := func(src string, query bool, mode spanner.Mode) *spanner.Spanner {
		if query {
			return spanner.MustCompileQuery(src, spanner.WithMode(mode))
		}
		return spanner.MustCompile(src, spanner.WithMode(mode))
	}
	for _, c := range cases {
		st := compile(c.src, c.query, spanner.ModeStrict).Stats()
		lazy := compile(c.src, c.query, spanner.ModeLazy)
		lazy.Count(c.doc)
		got := compileShape{
			VAStates: st.VAStates, VATransitions: st.VATransitions,
			EVAStates: st.EVAStates, EVATransitions: st.EVATransitions,
			Sequentialized: st.Sequentialized, DetStates: st.DetStates,
			ByteClasses: st.ByteClasses, DenseTableBytes: st.DenseTableBytes,
			LazyDetStates: lazy.Stats().DetStates,
		}
		if got != c.want {
			t.Errorf("%s: compiled shape\n got %+v\nwant %+v", c.name, got, c.want)
		}
	}
}

// TestChurnCompileAllocations caps the allocations of one query-churn
// cache miss (parse, key, compile) in each mode: compilation allocates in
// proportion to the automaton, not per edge or per state. The ceilings
// leave about 20% headroom over the measured counts.
func TestChurnCompileAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation moves allocations to the heap")
	}
	for _, c := range []struct {
		id   int
		want float64
	}{
		{churnHot + 1, 220}, // base 0, lazy: 182 measured
		{churnHot + 2, 210}, // base 1, strict: 175 measured
	} {
		src, mode := churnQuery(c.id)
		if got := testing.AllocsPerRun(20, func() { compileChurn(t, c.id) }); got > c.want {
			t.Errorf("%s compile of %s: %v allocations, want at most %v", mode, src, got, c.want)
		}
	}
}
