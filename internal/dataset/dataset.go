// Package dataset generates every workload of the paper's evaluation
// (Section 7): uniform synthetic data for path/star queries, the worst-case
// cycle construction of Ngo et al., power-law random graphs standing in for
// the Bitcoin OTC and Twitter networks of Fig. 9 (see DESIGN.md for the
// substitution rationale), PageRank edge weights, graph statistics, and the
// adversarial instances I1 (Fig. 16) and I2 (Fig. 19).
package dataset

import (
	"fmt"
	"math/rand"
	"strings"

	"anyk/internal/relation"
)

// Build constructs a workload by kind name — the single table behind both the
// CLI's -data flag and the HTTP service's dataset kinds. l is the number of
// relations, n the tuples per relation (or nodes for graph kinds), dom an
// optional domain-size override for uniform (0 = default n/10).
func Build(kind string, l, n, dom int, seed int64) (*relation.DB, error) {
	switch strings.ToLower(kind) {
	case "empty":
		return relation.NewDB(), nil
	case "", "uniform":
		if dom > 0 {
			return UniformDom(l, n, dom, seed), nil
		}
		return Uniform(l, n, seed), nil
	case "worstcase":
		return WorstCaseCycle(l, n, seed), nil
	case "bitcoin":
		return EdgesToDB(BitcoinLike(float64(n)/5881, seed), l), nil
	case "twitter":
		return EdgesToDB(TwitterLike(n, 10, seed), l), nil
	case "i1":
		return I1(n, seed), nil
	case "i2":
		return I2(n), nil
	}
	return nil, fmt.Errorf("unknown dataset kind %q (want empty, uniform, worstcase, bitcoin, twitter, i1, i2)", kind)
}

// Uniform builds ℓ binary relations R1..Rℓ with n tuples each whose values
// are sampled uniformly from N_{n/10} (so tuples join with ~10 partners on
// average, as in Section 7) and weights uniform in [0, 10000).
func Uniform(l, n int, seed int64) *relation.DB {
	return UniformDom(l, n, n/10, seed)
}

// UniformDom is Uniform with an explicit domain size (average join fanout is
// n/dom); used to size experiment panels.
func UniformDom(l, n, dom int, seed int64) *relation.DB {
	r := rand.New(rand.NewSource(seed))
	if dom < 1 {
		dom = 1
	}
	db := relation.NewDB()
	for i := 1; i <= l; i++ {
		rel := relation.New(fmt.Sprintf("R%d", i), "A1", "A2")
		rel.Grow(n)
		for k := 0; k < n; k++ {
			rel.Add(r.Float64()*10000, int64(r.Intn(dom)), int64(r.Intn(dom)))
		}
		db.AddRelation(rel)
	}
	return db
}

// WorstCaseCycle builds ℓ relations of n tuples following the construction
// of Ngo et al. used in Section 7 (and the I1 instance of Fig. 16): each
// relation holds n/2 tuples (0, i) and n/2 tuples (i, 0), creating a
// worst-case Θ((n/2)²) cycle output while every join is a star around the
// single heavy value 0.
func WorstCaseCycle(l, n int, seed int64) *relation.DB {
	r := rand.New(rand.NewSource(seed))
	db := relation.NewDB()
	for i := 1; i <= l; i++ {
		rel := relation.New(fmt.Sprintf("R%d", i), "A1", "A2")
		rel.Grow(n)
		for k := 1; k <= n/2; k++ {
			rel.Add(r.Float64()*10000, 0, int64(k))
			rel.Add(r.Float64()*10000, int64(k), 0)
		}
		db.AddRelation(rel)
	}
	return db
}

// I1 is the Fig. 16 adversarial 4-cycle database: four relations with the
// hub-and-spoke worst-case shape. NPRR needs Θ(n²) for the top-ranked result
// on it while the any-k decomposition needs only O(n) (Section 9.1.1).
func I1(n int, seed int64) *relation.DB { return WorstCaseCycle(4, 2*n, seed) }

// I2 is the Fig. 19 instance demonstrating the sub-optimality of sorted-
// access rank joins (Section 9.1.3): a 3-chain R(A,B) ⋈ S(B,C) ⋈ T(C,C2)
// where the top result (under descending-sum ranking) pairs the lightest
// R/S tuples with the single heavy T tuple, forcing rank joins to consider
// (n-1)² combinations first. T is padded to a binary relation so the chain
// query shape applies; the second column is a unique dummy.
func I2(n int) *relation.DB {
	db := relation.NewDB()
	r1 := relation.New("R1", "A", "B")
	r2 := relation.New("R2", "B", "C")
	r3 := relation.New("R3", "C", "C2")
	for i := 1; i < n; i++ {
		r1.Add(float64(n+1-i), int64(i), 1)      // (a_i, b_1), weights n .. 2
		r2.Add(float64(10*(n+1-i)), 1, int64(i)) // (b_1, c_i), weights 10n .. 20
		r3.Add(1, int64(i), int64(i))            // (c_i, ·), weight 1
	}
	r1.Add(1, 0, 0)              // r0 = (a_0, b_0), weight 1
	r2.Add(10, 0, 0)             // s0 = (b_0, c_0), weight 10
	r3.Add(100*float64(n), 0, 0) // t0 = (c_0, ·), very heavy
	db.AddRelation(r1)
	db.AddRelation(r2)
	db.AddRelation(r3)
	return db
}

// Edge is one weighted directed edge of a generated graph.
type Edge struct {
	From, To relation.Value
	W        float64
}

// PowerLawGraph generates a directed multigraph-free random graph with a
// skewed (preferential-attachment) in-degree distribution: nodes nodes and
// roughly m out-edges per node. It reproduces the degree skew of the social
// networks in Fig. 9.
func PowerLawGraph(nodes, m int, seed int64) []Edge {
	r := rand.New(rand.NewSource(seed))
	var edges []Edge
	seen := map[[2]relation.Value]bool{}
	// targets holds one entry per incident edge endpoint: sampling from it
	// is preferential attachment.
	targets := make([]relation.Value, 0, 2*nodes*m)
	for v := 0; v < nodes; v++ {
		deg := m
		if v < m {
			deg = 1 // seed nodes
		}
		for e := 0; e < deg; e++ {
			var to relation.Value
			if len(targets) == 0 || r.Float64() < 0.15 {
				to = relation.Value(r.Intn(nodes))
			} else {
				to = targets[r.Intn(len(targets))]
			}
			if to == relation.Value(v) {
				continue
			}
			k := [2]relation.Value{relation.Value(v), to}
			if seen[k] {
				continue
			}
			seen[k] = true
			edges = append(edges, Edge{From: relation.Value(v), To: to})
			targets = append(targets, to, relation.Value(v))
		}
	}
	return edges
}

// BitcoinLike generates a trust-network stand-in for the Bitcoin OTC graph
// of Fig. 9 at the given scale (scale 1 ≈ 5.9k nodes / 36k edges): power-law
// degree skew, uniform "trust" weights in [-10, 10] (shifted to be
// non-negative for min-sum ranking: w+10 ∈ [0,20]).
func BitcoinLike(scale float64, seed int64) []Edge {
	nodes := int(5881 * scale)
	if nodes < 10 {
		nodes = 10
	}
	edges := PowerLawGraph(nodes, 6, seed)
	r := rand.New(rand.NewSource(seed + 1))
	for i := range edges {
		edges[i].W = r.Float64() * 20 // trust in [-10,10] shifted by +10
	}
	return edges
}

// TwitterLike generates a follower-network stand-in for the Twitter graphs
// of Fig. 9: power-law graph whose edge weight is the sum of the PageRanks
// of its endpoints, exactly as the paper constructs its Twitter weights.
func TwitterLike(nodes, m int, seed int64) []Edge {
	edges := PowerLawGraph(nodes, m, seed)
	pr := PageRank(nodes, edges, 0.85, 30)
	for i := range edges {
		edges[i].W = (pr[edges[i].From] + pr[edges[i].To]) * float64(nodes)
	}
	return edges
}

// PageRank computes damped PageRank over nodes 0..n-1 with the given number
// of iterations.
func PageRank(n int, edges []Edge, damping float64, iters int) []float64 {
	out := make([]int, n)
	for _, e := range edges {
		out[e.From]++
	}
	pr := make([]float64, n)
	next := make([]float64, n)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		base := (1 - damping) / float64(n)
		for i := range next {
			next[i] = base
		}
		dangling := 0.0
		for v := 0; v < n; v++ {
			if out[v] == 0 {
				dangling += pr[v]
			}
		}
		for i := range next {
			next[i] += damping * dangling / float64(n)
		}
		for _, e := range edges {
			next[e.To] += damping * pr[e.From] / float64(out[e.From])
		}
		pr, next = next, pr
	}
	return pr
}

// Stats summarizes a graph as in Fig. 9.
type Stats struct {
	Nodes     int
	Edges     int
	MaxDegree int
	AvgDegree float64
}

// GraphStats computes node/edge counts and max/average total degree.
func GraphStats(edges []Edge) Stats {
	deg := map[relation.Value]int{}
	for _, e := range edges {
		deg[e.From]++
		deg[e.To]++
	}
	s := Stats{Nodes: len(deg), Edges: len(edges)}
	for _, d := range deg {
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	if s.Nodes > 0 {
		s.AvgDegree = float64(s.Edges) / float64(s.Nodes)
	}
	return s
}

// EdgesToDB registers the edge list as relations R1..Rl (the paper's
// experiments run path/star/cycle queries over l copies of the EDGES
// relation; copies share one physical relation via aliases).
func EdgesToDB(edges []Edge, l int) *relation.DB {
	rel := relation.New("EDGES", "A1", "A2")
	for _, e := range edges {
		rel.Add(e.W, e.From, e.To)
	}
	db := relation.NewDB()
	db.AddRelation(rel)
	for i := 1; i <= l; i++ {
		db.Alias(fmt.Sprintf("R%d", i), rel)
	}
	return db
}
