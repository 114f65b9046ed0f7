package homom

import (
	"math/rand"
	"testing"

	"anyk/internal/core"
	"anyk/internal/relation"
)

func targetGraph(r *rand.Rand, nodes, edges int) *relation.Relation {
	rel := relation.New("E", "from", "to")
	for i := 0; i < edges; i++ {
		rel.Add(float64(1+r.Intn(20)), int64(r.Intn(nodes)), int64(r.Intn(nodes)))
	}
	return rel
}

// bruteHoms enumerates all homomorphisms by assigning every pattern vertex
// to every target node and checking edges; returns sorted costs. Exponential
// — test patterns stay tiny.
func bruteHoms(pattern []PatternEdge, target *relation.Relation) []float64 {
	varSet := map[string]bool{}
	var vars []string
	for _, e := range pattern {
		for _, v := range []string{e.From, e.To} {
			if !varSet[v] {
				varSet[v] = true
				vars = append(vars, v)
			}
		}
	}
	nodeSet := map[relation.Value]bool{}
	for i := range target.Size() {
		row := target.Row(i)
		nodeSet[row[0]] = true
		nodeSet[row[1]] = true
	}
	var nodes []relation.Value
	for v := range nodeSet {
		nodes = append(nodes, v)
	}
	assign := map[string]relation.Value{}
	var out []float64
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			// one result per combination of matching edge tuples
			total := []float64{0}
			for _, e := range pattern {
				var ws []float64
				for ri := range target.Size() {
					row := target.Row(ri)
					if row[0] == assign[e.From] && row[1] == assign[e.To] {
						ws = append(ws, target.Weights[ri])
					}
				}
				if len(ws) == 0 {
					return
				}
				var next []float64
				for _, t := range total {
					for _, w := range ws {
						next = append(next, t+w)
					}
				}
				total = next
			}
			out = append(out, total...)
			return
		}
		for _, n := range nodes {
			assign[vars[i]] = n
			rec(i + 1)
		}
	}
	rec(0)
	// insertion sort (small)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestTreePatternMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	pattern := []PatternEdge{{"a", "b"}, {"b", "c"}, {"b", "d"}}
	for trial := 0; trial < 5; trial++ {
		target := targetGraph(r, 4, 12)
		want := bruteHoms(pattern, target)
		next, err := Enumerate(pattern, target, core.Take2)
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		for {
			h, ok := next()
			if !ok {
				break
			}
			got = append(got, h.Cost)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d homs, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: %v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestCyclePatternMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	pattern := []PatternEdge{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}}
	target := targetGraph(r, 4, 14)
	want := bruteHoms(pattern, target)
	next, err := Enumerate(pattern, target, core.Lazy)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for {
		h, ok := next()
		if !ok {
			break
		}
		got = append(got, h.Cost)
	}
	if len(got) != len(want) {
		t.Fatalf("%d homs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rank %d: %v want %v", i, got[i], want[i])
		}
	}
}

func TestMinCost(t *testing.T) {
	target := relation.New("E", "from", "to")
	target.Add(5, 1, 2)
	target.Add(1, 2, 3)
	target.Add(2, 1, 3)
	h, ok, err := MinCost([]PatternEdge{{"u", "v"}, {"v", "w"}}, target)
	if err != nil || !ok {
		t.Fatalf("MinCost failed: %v %v", ok, err)
	}
	// best 2-path: (1->2, w5)+(2->3, w1)=6 vs nothing else joins; also
	// (2->3)+(3->?) none; (1->3)+(3->?) none. So cost 6.
	if h.Cost != 6 || h.Assignment["u"] != 1 || h.Assignment["v"] != 2 || h.Assignment["w"] != 3 {
		t.Fatalf("got %+v", h)
	}
	// homomorphisms may collapse vertices: pattern square into a self-loop
	loop := relation.New("E", "from", "to")
	loop.Add(1, 7, 7)
	h2, ok2, err := MinCost([]PatternEdge{{"a", "b"}, {"b", "a"}}, loop)
	if err != nil || !ok2 {
		t.Fatalf("loop: %v %v", ok2, err)
	}
	if h2.Assignment["a"] != 7 || h2.Assignment["b"] != 7 || h2.Cost != 2 {
		t.Fatalf("loop hom: %+v", h2)
	}
	// no homomorphism
	empty := relation.New("E", "from", "to")
	if _, ok3, _ := MinCost([]PatternEdge{{"a", "b"}}, empty); ok3 {
		t.Fatal("found hom into empty graph")
	}
}

func TestEnumerateErrors(t *testing.T) {
	if _, err := Enumerate(nil, relation.New("E", "a", "b"), core.Take2); err == nil {
		t.Fatal("empty pattern accepted")
	}
	if _, err := Enumerate([]PatternEdge{{"a", "b"}}, relation.New("E", "a"), core.Take2); err == nil {
		t.Fatal("unary target accepted")
	}
}
