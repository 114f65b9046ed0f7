package dataset

import (
	"math"
	"testing"
)

func TestUniform(t *testing.T) {
	db := Uniform(4, 1000, 1)
	if len(db.Names()) != 4 {
		t.Fatalf("relations: %v", db.Names())
	}
	r := db.Relation("R1")
	if r.Size() != 1000 {
		t.Fatalf("size = %d", r.Size())
	}
	for i := range r.Size() {
		row := r.Row(i)
		if row[0] < 0 || row[0] >= 100 || row[1] < 0 || row[1] >= 100 {
			t.Fatalf("value outside N_{n/10}: %v", row)
		}
		if r.Weights[i] < 0 || r.Weights[i] >= 10000 {
			t.Fatalf("weight out of range: %v", r.Weights[i])
		}
	}
	// determinism
	db2 := Uniform(4, 1000, 1)
	if db2.Relation("R1").At(5, 0) != r.At(5, 0) {
		t.Fatal("not deterministic for equal seeds")
	}
}

func TestWorstCaseCycle(t *testing.T) {
	db := WorstCaseCycle(4, 100, 2)
	r := db.Relation("R3")
	if r.Size() != 100 {
		t.Fatalf("size = %d", r.Size())
	}
	zeros := 0
	for i := range r.Size() {
		row := r.Row(i)
		if row[0] == 0 || row[1] == 0 {
			zeros++
		}
		if row[0] != 0 && row[1] != 0 {
			t.Fatalf("row without hub: %v", row)
		}
	}
	if zeros != 100 {
		t.Fatalf("hub rows = %d", zeros)
	}
}

func TestI2Shape(t *testing.T) {
	db := I2(10)
	r1, r2, r3 := db.Relation("R1"), db.Relation("R2"), db.Relation("R3")
	if r1.Size() != 10 || r2.Size() != 10 || r3.Size() != 10 {
		t.Fatalf("sizes: %d %d %d", r1.Size(), r2.Size(), r3.Size())
	}
	// heaviest T tuple is t0
	maxW, maxI := -1.0, -1
	for i, w := range r3.Weights {
		if w > maxW {
			maxW, maxI = w, i
		}
	}
	if r3.At(maxI, 0) != 0 {
		t.Fatalf("heaviest T tuple is %v, want c_0", r3.Row(maxI))
	}
	// lightest R tuple is r0 = (0,0)
	minW, minI := math.Inf(1), -1
	for i, w := range r1.Weights {
		if w < minW {
			minW, minI = w, i
		}
	}
	if r1.At(minI, 0) != 0 || r1.At(minI, 1) != 0 {
		t.Fatalf("lightest R tuple is %v, want (0,0)", r1.Row(minI))
	}
}

func TestPowerLawGraphSkew(t *testing.T) {
	edges := PowerLawGraph(2000, 5, 3)
	s := GraphStats(edges)
	if s.Edges < 2000 {
		t.Fatalf("too few edges: %d", s.Edges)
	}
	if s.MaxDegree < 10*int(s.AvgDegree) {
		t.Fatalf("degree distribution not skewed: max=%d avg=%.1f", s.MaxDegree, s.AvgDegree)
	}
	// no self loops or duplicate edges
	seen := map[[2]int64]bool{}
	for _, e := range edges {
		if e.From == e.To {
			t.Fatalf("self loop at %d", e.From)
		}
		k := [2]int64{e.From, e.To}
		if seen[k] {
			t.Fatalf("duplicate edge %v", k)
		}
		seen[k] = true
	}
}

func TestPageRankProperties(t *testing.T) {
	n := 500
	edges := PowerLawGraph(n, 4, 4)
	pr := PageRank(n, edges, 0.85, 40)
	sum := 0.0
	for _, p := range pr {
		if p <= 0 {
			t.Fatal("non-positive PageRank")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("PageRank sums to %v", sum)
	}
	// a high in-degree node should outrank a typical node
	indeg := make([]int, n)
	for _, e := range edges {
		indeg[e.To]++
	}
	maxIn, maxV := 0, 0
	for v, d := range indeg {
		if d > maxIn {
			maxIn, maxV = d, v
		}
	}
	median := medianOf(pr)
	if pr[maxV] < 3*median {
		t.Fatalf("hub PageRank %v not above 3x median %v", pr[maxV], median)
	}
}

func medianOf(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

func TestBitcoinTwitterLike(t *testing.T) {
	b := BitcoinLike(0.1, 5)
	sb := GraphStats(b)
	if sb.Nodes < 100 || sb.Edges < sb.Nodes {
		t.Fatalf("bitcoin-like too small: %+v", sb)
	}
	for _, e := range b {
		if e.W < 0 || e.W > 20 {
			t.Fatalf("trust weight out of range: %v", e.W)
		}
	}
	tw := TwitterLike(1000, 8, 6)
	for _, e := range tw {
		if e.W <= 0 {
			t.Fatal("twitter-like weight must be positive (sum of PageRanks)")
		}
	}
}

func TestEdgesToDB(t *testing.T) {
	edges := []Edge{{From: 1, To: 2, W: 5}, {From: 2, To: 3, W: 7}}
	db := EdgesToDB(edges, 4)
	for _, name := range []string{"R1", "R2", "R3", "R4"} {
		r := db.Relation(name)
		if r == nil || r.Size() != 2 {
			t.Fatalf("alias %s missing", name)
		}
	}
	if db.Relation("R1") != db.Relation("R4") {
		t.Fatal("aliases must share one physical relation")
	}
}

func TestGraphStatsEmpty(t *testing.T) {
	s := GraphStats(nil)
	if s.Nodes != 0 || s.Edges != 0 || s.AvgDegree != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
}
