// Package dpgraph builds the Tree-based Dynamic Programming (T-DP) state
// space of Section 5.1: one stage per join-tree node, one state per tuple,
// and — crucially — per-(parent,child) *shared join-key groups* realizing the
// equi-join graph transformation of Fig. 3 that keeps the number of edges at
// O(ℓn). Serial DP (path queries, Section 3) is the single-child special
// case.
//
// The layout is flat: a stage is a handful of arrays indexed by state id —
// one value block per variable, parallel weight arrays, one strided array of
// parent→child-group links — and all of a stage's choice sets live in one
// CSR pair that Group.Members/Group.Costs slice into. Build allocates a
// fixed number of arrays per stage whatever the row count, grouping join keys
// without boxing them (keys.go), and BottomUp a fixed number per stage and
// child. After BottomUp the graph is immutable, so any number of enumerators (package
// core keeps all of its state outside the graph) may read it concurrently.
package dpgraph

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"anyk/internal/dioid"
	"anyk/internal/relation"
)

// Value aliases the relational domain type.
type Value = relation.Value

// StageInput describes one join-tree node to build a stage from: its bound
// variables, its tuples, their already-lifted weights, the index of its
// parent input (-1 = child of the artificial root), and whether the stage is
// pruned after the bottom-up pass (free-connex projections, Section 8.1).
//
// The tuples come in exactly one of two spellings. Cols is the columnar one:
// one slice per variable, each len(Weights) long; Build keeps these slices
// as the stage's value blocks without copying. Rows is the row-shaped one
// (one slice of len(Vars) values per tuple), transposed once on entry. An
// input with neither and no weights is an empty stage. Build also keeps
// Weights; none of the slices handed to it may be modified afterwards.
type StageInput[W any] struct {
	Name    string
	Vars    []string
	Rows    [][]Value
	Cols    [][]Value
	Weights []W
	Parent  int
	Prune   bool
}

// NumRows returns the number of tuples of the input.
func (in StageInput[W]) NumRows() int { return len(in.Weights) }

// Subset returns the input restricted to the tuples at the given positions,
// in that order and in the input's own spelling; the result shares nothing
// mutable with the receiver.
func (in StageInput[W]) Subset(ids []int) StageInput[W] {
	out := in
	out.Weights = make([]W, len(ids))
	for i, r := range ids {
		out.Weights[i] = in.Weights[r]
	}
	if in.Cols != nil {
		out.Cols = make([][]Value, len(in.Cols))
		for c, col := range in.Cols {
			dst := make([]Value, len(ids))
			for i, r := range ids {
				dst[i] = col[r]
			}
			out.Cols[c] = dst
		}
	}
	if in.Rows != nil {
		out.Rows = make([][]Value, len(ids))
		for i, r := range ids {
			out.Rows[i] = in.Rows[r]
		}
	}
	return out
}

// Group is a shared choice set: all states of a stage that agree on the join
// key with the parent stage. Every parent state with that key points to the
// same Group, so per-group data structures (sorted lists, heaps, suffix
// memos) are shared exactly as in the paper's transformed equi-join graph.
type Group[W any] struct {
	// Members lists the group's states in row order and Costs[i] is
	// Opt(Members[i]); both are windows into the stage's two CSR arrays.
	// Build fills Members with every state of the key; BottomUp compacts
	// both, in place, to the alive ones.
	Members []int32
	Costs   []W
	// MinIdx is the position in Members of the cheapest member; Min is its
	// cost (Zero for an empty group).
	MinIdx int32
	Min    W
}

// Stage is one join-tree node's slice of the state space. State s of the
// stage is row s of its input: Cols[c][s] are its values, Weight[s],
// EffWeight[s] and Opt[s] its weights.
type Stage[W any] struct {
	Index  int
	Name   string
	Vars   []string
	Parent int // stage index; -1 only for the artificial root
	Branch int // this stage's branch slot in its parent's ChildStages
	Pruned bool

	// N is the number of states.
	N int
	// Cols holds one value block per variable (Vars order).
	Cols [][]Value
	// Weight is the lifted input weight w(s) of entering each state.
	Weight []W
	// EffWeight is Weight ⊗ the optimal completions of all *pruned* child
	// branches; enumeration uses it so pruned subtrees cost nothing extra.
	// On a stage without pruned children it is the Weight array itself.
	EffWeight []W
	// Opt is the weight of the best solution of the subtree rooted at each
	// state, including Weight itself: Opt = Weight ⊗ ⊗_b Min(group_b) over
	// all child branches (Eq. 7, shifted by one level).
	Opt []W
	// Links[s*len(ChildStages)+b] is the index of state s's join-key group
	// in child stage b's group table, or -1 when the state has no join
	// partner there. Read it through Link.
	Links []int32
	// Groups are the stage's choice sets, numbered in order of first
	// appearance of their key.
	Groups []Group[W]

	// ChildStages lists child stage indices in serialized order;
	// UnprunedBranches the branch slots that participate in enumeration.
	ChildStages      []int
	UnprunedBranches []int

	// JoinCols are this stage's columns forming the join key with the
	// parent; ParentJoinCols the matching columns of the parent.
	JoinCols       []int
	ParentJoinCols []int

	// members and costs back every Group's Members and Costs: group g's
	// window starts at starts[g] (and starts[len(Groups)] == N).
	members []int32
	costs   []W
	starts  []int32
}

// hasPrunedChild reports whether st folds a pruned branch into EffWeight,
// which is when EffWeight is an array apart from Weight.
func (g *Graph[W]) hasPrunedChild(st *Stage[W]) bool {
	for _, cs := range st.ChildStages {
		if g.Stages[cs].Pruned {
			return true
		}
	}
	return false
}

// Link returns the group of child branch b that state s joins with, or -1.
func (st *Stage[W]) Link(s int32, b int) int32 {
	return st.Links[int(s)*len(st.ChildStages)+b]
}

// Graph is the full T-DP state space. Stages[0] is the artificial root with
// a single state; the remaining stages appear in preorder (parents first).
type Graph[W any] struct {
	D       dioid.Dioid[W]
	Stages  []*Stage[W]
	OutVars []string
	// Serial lists the unpruned stage indices (excluding the root) in
	// preorder: the serialized stage order of Section 5.1.
	Serial []int
	// gathers[p] is where AssembleRow reads output variable p from.
	gathers []gather
}

// gather names one output value's source: col[sol[stage]].
type gather struct {
	stage int
	col   []Value
}

// Build constructs the state space from stage inputs. Inputs must be in
// preorder: input i's Parent must be < i (or -1). outVars fixes the output
// row layout; pass nil to emit all variables in first-binding order. Faults
// in the inputs are reported as errors naming the stage.
func Build[W any](d dioid.Dioid[W], inputs []StageInput[W], outVars []string) (*Graph[W], error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("dpgraph: no stage inputs")
	}
	g := &Graph[W]{D: d, Stages: make([]*Stage[W], 1, len(inputs)+1)}
	g.Stages[0] = &Stage[W]{Index: 0, Name: "⊥root", Parent: -1, N: 1, Weight: []W{d.One()}, Opt: []W{d.One()}}

	for i, in := range inputs {
		cols, err := inputCols(i, in)
		if err != nil {
			return nil, err
		}
		st := &Stage[W]{
			Index:  i + 1,
			Name:   in.Name,
			Vars:   in.Vars,
			Parent: in.Parent + 1,
			Pruned: in.Prune,
			N:      len(in.Weights),
			Cols:   cols,
			Weight: in.Weights,
			Opt:    make([]W, len(in.Weights)),
		}
		parent := g.Stages[st.Parent]
		st.Branch = len(parent.ChildStages)
		parent.ChildStages = append(parent.ChildStages, st.Index)
		if !st.Pruned {
			parent.UnprunedBranches = append(parent.UnprunedBranches, st.Branch)
			g.Serial = append(g.Serial, st.Index)
		}
		jv := sharedVars(in.Vars, parent.Vars)
		st.JoinCols = colsOf(in.Vars, jv)
		st.ParentJoinCols = colsOf(parent.Vars, jv)
		g.Stages = append(g.Stages, st)
	}
	for _, st := range g.Stages {
		if k := len(st.ChildStages); k > 0 {
			st.Links = make([]int32, st.N*k)
		}
		st.EffWeight = st.Weight
		if g.hasPrunedChild(st) {
			st.EffWeight = make([]W, st.N)
		}
	}
	// Group every stage by its join key and point the parent's states at
	// the groups while the stage's key table is still at hand.
	var kt keyTable
	for _, st := range g.Stages[1:] {
		parent := g.Stages[st.Parent]
		st.buildGroups(kt.group(pick(st.Cols, st.JoinCols), st.N))
		kt.link(pick(parent.Cols, st.ParentJoinCols), parent.N, parent.Links, len(parent.ChildStages), st.Branch)
	}
	if err := g.buildOutput(outVars); err != nil {
		return nil, err
	}
	return g, nil
}

// inputCols validates input i and returns its tuples as one block per
// variable: in.Cols itself, or in.Rows transposed.
func inputCols[W any](i int, in StageInput[W]) ([][]Value, error) {
	fail := func(format string, args ...any) ([][]Value, error) {
		return nil, fmt.Errorf("dpgraph: input %d (%s): %s", i, in.Name, fmt.Sprintf(format, args...))
	}
	n, a := len(in.Weights), len(in.Vars)
	switch {
	case in.Parent < -1 || in.Parent >= i:
		return fail("parent %d out of preorder", in.Parent)
	case n > math.MaxInt32:
		return fail("%d rows exceed the %d states a stage can address", n, math.MaxInt32)
	case in.Rows != nil && in.Cols != nil:
		return fail("both Rows and Cols are set")
	case in.Rows == nil && in.Cols == nil && n > 0:
		return fail("neither Rows nor Cols is set, but %d weights", n)
	case in.Cols != nil:
		if len(in.Cols) != a {
			return fail("%d columns for %d variables", len(in.Cols), a)
		}
		for c, col := range in.Cols {
			if len(col) != n {
				return fail("column %d (%s) has %d values but there are %d weights", c, in.Vars[c], len(col), n)
			}
		}
		return in.Cols, nil
	case len(in.Rows) != n:
		return fail("%d rows but %d weights", len(in.Rows), n)
	}
	flat := make([]Value, n*a)
	cols := make([][]Value, a)
	for c := range cols {
		cols[c] = flat[c*n : (c+1)*n : (c+1)*n]
	}
	for r, row := range in.Rows {
		if len(row) != a {
			return fail("row %d has %d values for %d variables", r, len(row), a)
		}
		for c, v := range row {
			cols[c][r] = v
		}
	}
	return cols, nil
}

// buildGroups lays the stage's choice sets out as one CSR: a counting sort
// of the states by group id, which keeps every group's members in row order.
func (st *Stage[W]) buildGroups(gid []int32, ngroups int) {
	st.Groups = make([]Group[W], ngroups)
	st.members = make([]int32, st.N)
	st.costs = make([]W, st.N)
	st.starts = make([]int32, ngroups+1)
	for _, g := range gid {
		st.starts[g+1]++
	}
	for g := 0; g < ngroups; g++ {
		lo, hi := st.starts[g], st.starts[g]+st.starts[g+1]
		st.starts[g+1] = hi
		st.Groups[g] = Group[W]{Members: st.members[lo:hi:hi], Costs: st.costs[lo:hi:hi], MinIdx: -1}
	}
	next := slices.Clone(st.starts[:ngroups])
	for s, g := range gid {
		st.members[next[g]] = int32(s)
		next[g]++
	}
}

// pick returns the listed columns.
func pick(cols [][]Value, idx []int) [][]Value {
	out := make([][]Value, len(idx))
	for i, c := range idx {
		out[i] = cols[c]
	}
	return out
}

// buildOutput fixes the output layout: every output variable is read from
// the first unpruned stage that binds it (join consistency makes every other
// binding equal).
func (g *Graph[W]) buildOutput(outVars []string) error {
	bound := map[string]gather{}
	var order []string
	for _, si := range g.Serial {
		st := g.Stages[si]
		for c, v := range st.Vars {
			if _, ok := bound[v]; !ok {
				bound[v] = gather{si, st.Cols[c]}
				order = append(order, v)
			}
		}
	}
	if outVars == nil {
		outVars = order
	}
	g.OutVars = outVars
	g.gathers = make([]gather, len(outVars))
	seen := make(map[string]bool, len(outVars))
	for p, v := range outVars {
		b, ok := bound[v]
		if !ok {
			return fmt.Errorf("dpgraph: output variable %s is bound by no unpruned stage", v)
		}
		if seen[v] {
			return fmt.Errorf("dpgraph: output variable %s is listed twice", v)
		}
		seen[v] = true
		g.gathers[p] = b
	}
	return nil
}

// BottomUp runs the dynamic-programming pass of Eq. (7): in reverse
// serialized order it computes every state's optimal subtree weight, folds
// pruned branches into EffWeight, and shrinks every group to its alive
// members with their costs and minimum. After BottomUp the graph is ready
// for any enumerator. It returns the weight of the overall best solution
// (Zero when the query output is empty). Running it again changes nothing.
// BottomUpP spreads the same pass over a worker pool.
func (g *Graph[W]) BottomUp() W {
	return g.BottomUpP(1)
}

// Empty reports whether the query output is empty (only valid after
// BottomUp).
func (g *Graph[W]) Empty() bool {
	return !g.D.Less(g.Stages[0].Opt[0], g.D.Zero())
}

// AssembleRow maps a solution (one state per stage, -1 for the root slot and
// pruned stages) to an output row over OutVars.
func (g *Graph[W]) AssembleRow(sol []int32, out []Value) []Value {
	if cap(out) < len(g.OutVars) {
		out = make([]Value, len(g.OutVars))
	}
	out = out[:len(g.OutVars)]
	for p, src := range g.gathers {
		out[p] = src.col[sol[src.stage]]
	}
	return out
}

// NumStates returns the total number of states (diagnostics, size bounds).
func (g *Graph[W]) NumStates() int {
	n := 0
	for _, st := range g.Stages {
		n += st.N
	}
	return n
}

// SizeBytes returns the bytes of every array reachable from the graph: value
// blocks, weights, links, the choice-set CSR and the group table. Value
// blocks and Weight arrays built from a columnar StageInput are shared with
// it, not copied, and are counted here all the same.
func (g *Graph[W]) SizeBytes() int64 {
	var w W
	wsize := int64(unsafe.Sizeof(w))
	var total int64
	for _, st := range g.Stages {
		n := int64(st.N)
		weights := int64(2) // Weight, Opt
		if g.hasPrunedChild(st) {
			weights++ // EffWeight is an array of its own
		}
		total += n*8*int64(len(st.Cols)) + n*wsize*weights
		total += int64(len(st.Links)+len(st.members)+len(st.starts))*4 + int64(len(st.costs))*wsize
		total += int64(len(st.Groups)) * int64(unsafe.Sizeof(Group[W]{}))
	}
	return total
}

// GroupStats returns the number of groups and the size of the largest
// choice set (alive members, once BottomUp has run).
func (g *Graph[W]) GroupStats() (groups, largest int) {
	for _, st := range g.Stages {
		groups += len(st.Groups)
		for i := range st.Groups {
			if n := len(st.Groups[i].Members); n > largest {
				largest = n
			}
		}
	}
	return groups, largest
}

func sharedVars(a, b []string) []string {
	var out []string
	for _, v := range a {
		for _, w := range b {
			if v == w {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

func colsOf(vars []string, want []string) []int {
	cols := make([]int, 0, len(want))
	for _, w := range want {
		for i, v := range vars {
			if v == w {
				cols = append(cols, i)
				break
			}
		}
	}
	return cols
}
