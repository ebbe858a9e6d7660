package model

import (
	"strings"
	"testing"
)

func TestSpanBasics(t *testing.T) {
	d := []byte("John <j@g.be>, Jane <555-12>")
	// Figure 1 of the paper: d(1,5) = John.
	s := NewSpan(1, 5)
	if got := s.Text(d); got != "John" {
		t.Fatalf("Text = %q, want John", got)
	}
	if got := NewSpan(7, 13).Text(d); got != "j@g.be" {
		t.Fatalf("Text = %q, want j@g.be", got)
	}
	if got := NewSpan(16, 20).Text(d); got != "Jane" {
		t.Fatalf("Text = %q, want Jane", got)
	}
	if got := NewSpan(22, 28).Text(d); got != "555-12" {
		t.Fatalf("Text = %q, want 555-12", got)
	}
	// Empty span: i == j yields ε.
	if got := NewSpan(3, 3).Text(d); got != "" {
		t.Fatalf("empty span Text = %q, want \"\"", got)
	}
	if !NewSpan(1, len(d)+1).In(len(d)) {
		t.Fatal("whole-document span must be a span of d")
	}
	if NewSpan(1, len(d)+2).In(len(d)) {
		t.Fatal("span past |d|+1 is not a span of d")
	}
}

func TestSpanConcat(t *testing.T) {
	s1 := NewSpan(1, 5)
	s2 := NewSpan(5, 9)
	if !s1.Follows(s2) {
		t.Fatal("s2 follows s1")
	}
	if got := s1.Concat(s2); got != NewSpan(1, 9) {
		t.Fatalf("Concat = %v", got)
	}
}

func TestSpanPanicsOnMalformed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for j < i")
		}
	}()
	NewSpan(5, 4)
}

func TestByteSet(t *testing.T) {
	var s ByteSet
	s.AddRange('a', 'c')
	s.Add('0')
	if !s.Has('a') || !s.Has('b') || !s.Has('c') || !s.Has('0') {
		t.Fatal("missing members")
	}
	if s.Has('d') {
		t.Fatal("unexpected member")
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if got := string(s.Bytes()); got != "0abc" {
		t.Fatalf("Bytes = %q", got)
	}
	if AnyByte().Len() != 256 {
		t.Fatal("AnyByte must contain all bytes")
	}
	if AnyByte().String() != "." {
		t.Fatalf("AnyByte String = %q", AnyByte().String())
	}
	neg := s.Negate()
	if neg.Len() != 252 || neg.Has('a') || !neg.Has('d') {
		t.Fatal("Negate wrong")
	}
	if !s.Union(neg).Inter(AnyByte()).IsEmpty() == false {
		t.Fatal("union with complement must be everything")
	}
	if !s.Minus(Byte('a')).Has('b') || s.Minus(Byte('a')).Has('a') {
		t.Fatal("Minus wrong")
	}
	if !strings.Contains(ByteSet(Byte('a')).String(), "a") {
		t.Fatal("singleton String should mention the byte")
	}
}

func TestMapping(t *testing.T) {
	reg := NewRegistryOf("name", "email", "phone")
	name, _ := reg.Lookup("name")
	email, _ := reg.Lookup("email")

	m := NewMapping(reg)
	if !m.IsEmpty() {
		t.Fatal("fresh mapping must be empty")
	}
	m.Assign(name, NewSpan(1, 5))
	m.Assign(email, NewSpan(7, 13))
	if m.DomainSize() != 2 {
		t.Fatalf("DomainSize = %d", m.DomainSize())
	}
	if s, ok := m.GetName("name"); !ok || s != NewSpan(1, 5) {
		t.Fatalf("GetName(name) = %v %v", s, ok)
	}
	if _, ok := m.GetName("phone"); ok {
		t.Fatal("phone must be unassigned")
	}
	if _, ok := m.GetName("nonexistent"); ok {
		t.Fatal("unknown names are unassigned")
	}
	if got, want := m.Key(), "email=[7,13)|name=[1,5)"; got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}

	c := m.Clone()
	c.Unassign(name)
	if m.DomainSize() != 2 || c.DomainSize() != 1 {
		t.Fatal("Clone must be independent")
	}
	if m.Equal(c) {
		t.Fatal("mappings with different domains are unequal")
	}
}

func TestMappingCompatibilityAndUnion(t *testing.T) {
	regA := NewRegistryOf("x", "y")
	regB := NewRegistryOf("y", "z")
	a := NewMapping(regA)
	a.Assign(0, NewSpan(1, 2)) // x
	a.Assign(1, NewSpan(2, 4)) // y
	b := NewMapping(regB)
	b.Assign(0, NewSpan(2, 4)) // y — agrees with a
	b.Assign(1, NewSpan(4, 5)) // z

	if !a.Compatible(b) || !b.Compatible(a) {
		t.Fatal("mappings should be compatible")
	}
	merged, _, _, _ := Merge(regA, regB)
	u, err := a.Union(b, merged)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := u.Key(), "x=[1,2)|y=[2,4)|z=[4,5)"; got != want {
		t.Fatalf("union Key = %q, want %q", got, want)
	}

	// Now make y disagree.
	b.Assign(0, NewSpan(3, 4))
	if a.Compatible(b) {
		t.Fatal("mappings should be incompatible")
	}
	if _, err := a.Union(b, merged); err == nil {
		t.Fatal("incompatible union must error")
	}
}

func TestMappingProject(t *testing.T) {
	reg := NewRegistryOf("x", "y")
	m := NewMapping(reg)
	m.Assign(0, NewSpan(1, 2))
	m.Assign(1, NewSpan(2, 3))
	pr := NewRegistryOf("x")
	p, err := m.Project([]string{"x"}, pr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Key(), "x=[1,2)"; got != want {
		t.Fatalf("projected Key = %q, want %q", got, want)
	}
}

func TestMappingSetOps(t *testing.T) {
	reg := NewRegistryOf("x")
	mk := func(i, j int) *Mapping {
		m := NewMapping(reg)
		m.Assign(0, NewSpan(i, j))
		return m
	}
	a := NewMappingSet()
	a.Add(mk(1, 2))
	a.Add(mk(2, 3))
	if !a.Add(mk(3, 4)) || a.Add(mk(1, 2)) {
		t.Fatal("Add must report novelty")
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d", a.Len())
	}

	b := NewMappingSet()
	b.Add(mk(1, 2))
	u := UnionSets(a, b)
	if u.Len() != 3 {
		t.Fatalf("union Len = %d", u.Len())
	}

	j, err := JoinSets(a, b, reg, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Join on the shared variable x keeps only the agreeing pair.
	if j.Len() != 1 || !j.ContainsKey("x=[1,2)") {
		t.Fatalf("join = %v", j)
	}

	empty := NewRegistryOf()
	p, err := ProjectSet(a, nil, empty)
	if err != nil {
		t.Fatal(err)
	}
	// Projecting everything away collapses to the single empty mapping.
	if p.Len() != 1 || !p.ContainsKey("") {
		t.Fatalf("projection = %v", p)
	}
}

func TestMappingSetJoinIsCartesianOnDisjointVars(t *testing.T) {
	regA := NewRegistryOf("x")
	regB := NewRegistryOf("y")
	a := NewMappingSet()
	b := NewMappingSet()
	for i := 1; i <= 3; i++ {
		m := NewMapping(regA)
		m.Assign(0, NewSpan(i, i+1))
		a.Add(m)
		n := NewMapping(regB)
		n.Assign(0, NewSpan(i, i+2))
		b.Add(n)
	}
	j, err := JoinSets(a, b, regA, regB)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 9 {
		t.Fatalf("disjoint-variable join must be the cartesian product: got %d", j.Len())
	}
}

func TestMappingSetDiffAndEqual(t *testing.T) {
	reg := NewRegistryOf("x")
	mk := func(i, j int) *Mapping {
		m := NewMapping(reg)
		m.Assign(0, NewSpan(i, j))
		return m
	}
	a := NewMappingSet()
	a.Add(mk(1, 2))
	b := NewMappingSet()
	b.Add(mk(2, 3))
	if a.Equal(b) {
		t.Fatal("sets differ")
	}
	d := a.Diff(b, 10)
	if len(d) != 2 {
		t.Fatalf("Diff = %v", d)
	}
	b2 := NewMappingSet()
	b2.Add(mk(1, 2))
	if !a.Equal(b2) {
		t.Fatal("sets equal")
	}
}
