package query

import (
	"math/rand"
	"testing"
)

func TestBuilders(t *testing.T) {
	p := PathQuery(4)
	if len(p.Atoms) != 4 || p.Atoms[0].Vars[1] != "x2" || p.Atoms[3].Vars[1] != "x5" {
		t.Fatalf("bad path query: %v", p)
	}
	c := CycleQuery(4)
	if c.Atoms[3].Vars[1] != "x1" {
		t.Fatalf("cycle not closed: %v", c)
	}
	s := StarQuery(3)
	for _, a := range s.Atoms {
		if a.Vars[0] != "x1" {
			t.Fatalf("star not centered: %v", s)
		}
	}
	x := CartesianQuery(3)
	if len(x.Vars()) != 3 {
		t.Fatalf("cartesian vars: %v", x.Vars())
	}
	if p.String() == "" || !p.IsFull() {
		t.Fatal("String/IsFull broken")
	}
}

func TestAcyclicity(t *testing.T) {
	cases := []struct {
		q    *CQ
		want bool
	}{
		{PathQuery(2), true},
		{PathQuery(6), true},
		{StarQuery(5), true},
		{CartesianQuery(4), true},
		{CycleQuery(3), false},
		{CycleQuery(4), false},
		{CycleQuery(6), false},
		// alpha-acyclic even though it "looks" like a triangle plus cover
		{NewCQ("covered", nil,
			Atom{Rel: "R", Vars: []string{"a", "b"}},
			Atom{Rel: "S", Vars: []string{"b", "c"}},
			Atom{Rel: "T", Vars: []string{"a", "c"}},
			Atom{Rel: "U", Vars: []string{"a", "b", "c"}}), true},
		{NewCQ("single", nil, Atom{Rel: "R", Vars: []string{"a", "b"}}), true},
	}
	for _, c := range cases {
		if got := IsAcyclic(c.q); got != c.want {
			t.Errorf("IsAcyclic(%s) = %v, want %v", c.q.Name, got, c.want)
		}
	}
}

func TestJoinTreeValid(t *testing.T) {
	for _, q := range []*CQ{PathQuery(3), PathQuery(7), StarQuery(6), CartesianQuery(3),
		NewCQ("mixed", nil,
			Atom{Rel: "R", Vars: []string{"a", "b"}},
			Atom{Rel: "S", Vars: []string{"b", "c", "d"}},
			Atom{Rel: "T", Vars: []string{"c", "e"}},
			Atom{Rel: "U", Vars: []string{"d", "f"}},
		)} {
		tr, err := BuildJoinTree(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if !verifyJoinTree(q, tr.Parent) {
			t.Fatalf("%s: join tree violates running intersection", q.Name)
		}
		if len(tr.Order) != len(q.Atoms) || tr.Order[0] != tr.Root {
			t.Fatalf("%s: bad preorder %v", q.Name, tr.Order)
		}
		// every non-root appears after its parent
		pos := map[int]int{}
		for i, u := range tr.Order {
			pos[u] = i
		}
		for i, p := range tr.Parent {
			if p >= 0 && pos[p] > pos[i] {
				t.Fatalf("%s: child %d before parent %d", q.Name, i, p)
			}
		}
	}
	if _, err := BuildJoinTree(CycleQuery(4)); err == nil {
		t.Fatal("expected error for cyclic query")
	}
}

func TestReroot(t *testing.T) {
	q := PathQuery(5)
	tr, err := BuildJoinTree(q)
	if err != nil {
		t.Fatal(err)
	}
	for newRoot := 0; newRoot < len(q.Atoms); newRoot++ {
		rt := tr.Reroot(newRoot)
		if rt.Root != newRoot || rt.Parent[newRoot] != -1 {
			t.Fatalf("reroot at %d failed", newRoot)
		}
		if !verifyJoinTree(q, rt.Parent) {
			t.Fatalf("rerooted tree at %d invalid", newRoot)
		}
		// still a tree: n-1 edges, all reachable
		if len(rt.Order) != len(q.Atoms) {
			t.Fatalf("reroot lost nodes: %v", rt.Order)
		}
	}
}

func TestJoinVars(t *testing.T) {
	q := PathQuery(3)
	tr, err := BuildJoinTree(q)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		p := tr.Parent[c]
		if p < 0 {
			continue
		}
		jv := tr.JoinVars(c)
		if len(jv) != 1 {
			t.Fatalf("path join vars between %d and %d: %v", c, p, jv)
		}
	}
}

func TestFreeConnex(t *testing.T) {
	// full queries are free-connex
	if !IsFreeConnex(PathQuery(4)) {
		t.Fatal("full path should be free-connex")
	}
	// endpoint projection of a 2-path: Q(x1) :- R1(x1,x2), R2(x2,x3)
	q1 := NewCQ("q1", []string{"x1"},
		Atom{Rel: "R1", Vars: []string{"x1", "x2"}}, Atom{Rel: "R2", Vars: []string{"x2", "x3"}})
	if !IsFreeConnex(q1) {
		t.Fatal("q1 should be free-connex")
	}
	// matrix multiplication: Q(x1,x3) :- R1(x1,x2), R2(x2,x3) — NOT free-connex
	q2 := NewCQ("q2", []string{"x1", "x3"},
		Atom{Rel: "R1", Vars: []string{"x1", "x2"}}, Atom{Rel: "R2", Vars: []string{"x2", "x3"}})
	if IsFreeConnex(q2) {
		t.Fatal("matrix multiplication must not be free-connex")
	}
	// Example 19 from the paper
	q3 := NewCQ("ex19", []string{"y1", "y2", "y3", "y4"},
		Atom{Rel: "R1", Vars: []string{"y1", "y2"}},
		Atom{Rel: "R2", Vars: []string{"y2", "y3"}},
		Atom{Rel: "R3", Vars: []string{"x1", "y1", "y4"}},
		Atom{Rel: "R4", Vars: []string{"x2", "y3"}})
	if !IsFreeConnex(q3) {
		t.Fatal("Example 19 query should be free-connex")
	}
	// cyclic query is never free-connex here
	if IsFreeConnex(NewCQ("cyc", []string{"x1"}, CycleQuery(4).Atoms...)) {
		t.Fatal("cyclic query reported free-connex")
	}
}

func TestConnexPlanExample19(t *testing.T) {
	q := NewCQ("ex19", []string{"y1", "y2", "y3", "y4"},
		Atom{Rel: "R1", Vars: []string{"y1", "y2"}},
		Atom{Rel: "R2", Vars: []string{"y2", "y3"}},
		Atom{Rel: "R3", Vars: []string{"x1", "y1", "y4"}},
		Atom{Rel: "R4", Vars: []string{"x2", "y3"}})
	p, err := ConnexPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	// Expect 6 nodes: R1, R2, R3', R4' in U plus pruned R3, R4.
	if len(p.Nodes) != 6 {
		t.Fatalf("got %d nodes: %+v", len(p.Nodes), p.Nodes)
	}
	pruned, unpruned := 0, 0
	freeOnly := map[string]bool{"y1": true, "y2": true, "y3": true, "y4": true}
	for _, n := range p.Nodes {
		if n.Prune {
			pruned++
			continue
		}
		unpruned++
		for _, v := range n.Vars {
			if !freeOnly[v] {
				t.Fatalf("U node binds existential var %s", v)
			}
		}
	}
	if pruned != 2 || unpruned != 4 {
		t.Fatalf("pruned=%d unpruned=%d", pruned, unpruned)
	}
}

func TestConnexPlanSimpleProjection(t *testing.T) {
	// Q(x1) :- R1(x1,x2), R2(x2,x3): one existential component {R1? no —
	// R1 is mixed (x1 free, x2 existential), R2 purely existential}.
	q := NewCQ("q", []string{"x1"},
		Atom{Rel: "R1", Vars: []string{"x1", "x2"}}, Atom{Rel: "R2", Vars: []string{"x2", "x3"}})
	p, err := ConnexPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	// R1' (projection on x1) unpruned; R1, R2 pruned below it.
	if len(p.Nodes) != 3 {
		t.Fatalf("nodes: %+v", p.Nodes)
	}
	root := p.Nodes[p.Order[0]]
	if root.Prune || len(root.Vars) != 1 || root.Vars[0] != "x1" {
		t.Fatalf("bad root: %+v", root)
	}
}

func TestConnexPlanRejectsUnsupported(t *testing.T) {
	// two mixed atoms sharing an existential var
	q := NewCQ("q", []string{"y1", "y2"},
		Atom{Rel: "R1", Vars: []string{"y1", "x"}}, Atom{Rel: "R2", Vars: []string{"x", "y2"}})
	if _, err := ConnexPlan(q); err == nil {
		t.Fatal("expected rejection (not free-connex / multi-anchor)")
	}
}

func TestGYORandomAcyclicAlwaysVerifies(t *testing.T) {
	// Random trees of atoms are acyclic; GYO must find a valid join tree.
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(6)
		atoms := make([]Atom, n)
		atoms[0] = Atom{Rel: "R0", Vars: []string{"v0", "v0b"}}
		next := 1
		for i := 1; i < n; i++ {
			p := r.Intn(i)
			// child shares one variable with parent, adds a fresh one
			pv := atoms[p].Vars[r.Intn(len(atoms[p].Vars))]
			atoms[i] = Atom{Rel: "R" + string(rune('0'+i)), Vars: []string{pv, "f" + string(rune('a'+next%26)) + string(rune('0'+next/26))}}
			next++
		}
		q := NewCQ("rand", nil, atoms...)
		tr, err := BuildJoinTree(q)
		if err != nil {
			t.Fatalf("trial %d: %v (%s)", trial, err, q)
		}
		if !verifyJoinTree(q, tr.Parent) {
			t.Fatalf("trial %d: invalid join tree for %s", trial, q)
		}
	}
}

func TestCliqueQueryAndParseFamily(t *testing.T) {
	q := CliqueQuery(4)
	if len(q.Atoms) != 6 {
		t.Fatalf("K4 has %d atoms, want 6", len(q.Atoms))
	}
	if len(q.Vars()) != 4 {
		t.Fatalf("K4 has %d vars, want 4", len(q.Vars()))
	}
	if IsAcyclic(q) {
		t.Fatal("K4 must be cyclic")
	}
	// Every unordered vertex pair appears exactly once.
	pairs := map[string]int{}
	for _, a := range q.Atoms {
		if len(a.Vars) != 2 || a.Vars[0] == a.Vars[1] {
			t.Fatalf("bad clique atom %v", a)
		}
		pairs[a.Vars[0]+","+a.Vars[1]]++
	}
	if len(pairs) != 6 {
		t.Fatalf("got pairs %v", pairs)
	}
	fam, err := ParseFamily("clique5")
	if err != nil {
		t.Fatal(err)
	}
	if len(fam.Atoms) != 10 || fam.Name != "QK5" {
		t.Fatalf("clique5 = %s with %d atoms", fam.Name, len(fam.Atoms))
	}
	if _, err := ParseFamily("cliqueX"); err == nil {
		t.Fatal("expected error for bad clique size")
	}
}

// verifyJoinTree checks the running-intersection (coherence) property: for
// every variable, the atoms containing it induce a connected subtree.
func verifyJoinTree(q *CQ, parent []int) bool {
	n := len(q.Atoms)
	if n == 0 {
		return true
	}
	root := rootOf(parent)
	if root < 0 {
		return false
	}
	for _, v := range q.Vars() {
		// Collect atoms containing v; check they form a connected subtree:
		// all but one must have a parent (within the set) reachable by
		// walking up through atoms that also contain v... equivalently the
		// topmost atom containing v is unique.
		tops := 0
		for i, a := range q.Atoms {
			if !hasVar(a, v) {
				continue
			}
			p := parent[i]
			if p == -1 || !hasVar(q.Atoms[p], v) {
				tops++
			}
		}
		if tops > 1 {
			return false
		}
	}
	return true
}

func hasVar(a Atom, v string) bool {
	for _, x := range a.Vars {
		if x == v {
			return true
		}
	}
	return false
}
