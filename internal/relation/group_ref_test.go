package relation

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refGroupBy is the map-based group-by GroupIndex and FilteredGroupIndex
// replaced, kept as their oracle: it partitions the listed row ids (every
// row when ids is nil) by their projection onto cols, in first-seen order.
func refGroupBy(r *Relation, cols []int, ids []int) (keys []Key, groups [][]int, index map[Key]int) {
	if ids == nil {
		ids = make([]int, r.Size())
		for i := range ids {
			ids[i] = i
		}
	}
	index = make(map[Key]int, len(ids))
	if len(cols) == 1 {
		col := r.cols[cols[0]]
		for _, i := range ids {
			k := Key1(col[i])
			g, ok := index[k]
			if !ok {
				g = len(groups)
				index[k] = g
				keys = append(keys, k)
				groups = append(groups, nil)
			}
			groups[g] = append(groups[g], i)
		}
		return keys, groups, index
	}
	byEnc := make(map[string]int, len(ids))
	scratch := make([]byte, 0, len(cols)*8)
	for _, i := range ids {
		scratch = scratch[:0]
		for _, c := range cols {
			u := uint64(r.cols[c][i])
			scratch = append(scratch, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
				byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
		}
		g, ok := byEnc[string(scratch)] // zero-alloc lookup
		if !ok {
			k := Key{multi: string(scratch), n: len(cols)}
			g = len(groups)
			byEnc[k.multi] = g
			index[k] = g
			keys = append(keys, k)
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return keys, groups, index
}

// sameGrouping checks x, a grouping of the rows ids of r (every row when ids
// is nil) by cols, against refGroupBy: the same windows in the same order,
// each key found at its window, and keys one off a present key in any column
// found exactly when the reference has them.
func sameGrouping(t *testing.T, r *Relation, cols []int, ids []int, x *Grouping) {
	t.Helper()
	_, groups, index := refGroupBy(r, cols, ids)
	if x.Len() != len(groups) {
		t.Fatalf("cols %v: %d windows, reference %d", cols, x.Len(), len(groups))
	}
	find := func(key []Value) int32 {
		g, ok := index[MakeKey(key)]
		if !ok {
			return -1
		}
		return int32(g)
	}
	key := make([]Value, len(cols))
	for g, want := range groups {
		w := x.Window(int32(g))
		if len(w) != len(want) {
			t.Fatalf("cols %v window %d: %v, reference %v", cols, g, w, want)
		}
		for i := range w {
			if int(w[i]) != want[i] {
				t.Fatalf("cols %v window %d: %v, reference %v", cols, g, w, want)
			}
		}
		r.ProjectInto(key, want[0], cols)
		if got := x.Find(key...); got != int32(g) {
			t.Fatalf("cols %v: Find(%v) = %d, want %d", cols, key, got, g)
		}
		for c := range key {
			for _, delta := range []Value{-1, 1} {
				probe := slices.Clone(key)
				probe[c] += delta
				if got, want := x.Find(probe...), find(probe); got != want {
					t.Fatalf("cols %v: Find(%v) = %d, reference %d", cols, probe, got, want)
				}
			}
		}
	}
}

// checkGroupIndex builds a relation from the fuzz parameters and compares
// FilteredGroupIndex (GroupIndex when there is no predicate) against
// refGroupBy. Each of up to three columns is narrow (a few distinct values,
// direct addressing) or wide (values spread over the whole int64 range, the
// hashed path), as shape's bits say; the key is a nonempty subset of the
// columns in a shape-chosen order, and pred, when nonzero, picks a predicate.
func checkGroupIndex(t *testing.T, seed int64, n uint16, shape uint8, pred uint8) {
	rng := rand.New(rand.NewSource(seed))
	arity := 1 + int(shape%3)
	attrs := []string{"a", "b", "c"}[:arity]
	pools := make([][]Value, arity)
	for c := range pools {
		distinct := 1 + rng.Intn(20)
		for range distinct {
			v := Value(rng.Intn(2*distinct+1) - distinct)
			if shape&(8<<c) != 0 {
				v = Value(rng.Uint64())
				if rng.Intn(8) == 0 {
					v = []Value{math.MinInt64, math.MaxInt64, 0}[rng.Intn(3)]
				}
			}
			pools[c] = append(pools[c], v)
		}
	}
	r := New("R", attrs...)
	vals := make([]Value, arity)
	for range int(n % 1500) {
		for c := range vals {
			vals[c] = pools[c][rng.Intn(len(pools[c]))]
		}
		r.Add(rng.Float64(), vals...)
	}
	cols := rng.Perm(arity)[:1+rng.Intn(arity)]
	var preds []ScanPred
	if pred != 0 {
		c := int(pred) % arity
		p := ScanPred{Col: c, Op: CmpOp(int(pred/4) % 7), Col2: (c + 1) % arity}
		p.Code = pools[c][rng.Intn(len(pools[c]))]
		preds = []ScanPred{p}
	}
	var ids []int
	if len(preds) > 0 {
		ids = naiveScan(r, preds)
	}
	sameGrouping(t, r, cols, ids, r.FilteredGroupIndex(cols, preds))
}

// TestGroupIndexMatchesRef runs checkGroupIndex over a fixed spread of
// shapes: every column count, narrow and wide columns, with and without a
// predicate, and relations from empty to 1 500 rows.
func TestGroupIndexMatchesRef(t *testing.T) {
	for seed := range int64(300) {
		checkGroupIndex(t, seed, uint16(seed*37), uint8(seed), uint8(seed*11%29))
	}
}

// FuzzGroupIndexMatchesRef is checkGroupIndex as a fuzz target.
func FuzzGroupIndexMatchesRef(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(0), uint8(0))
	f.Add(int64(2), uint16(900), uint8(0x3a), uint8(5))
	f.Add(int64(3), uint16(0), uint8(2), uint8(9))
	f.Add(int64(4), uint16(1400), uint8(0x7e), uint8(26))
	f.Fuzz(checkGroupIndex)
}
