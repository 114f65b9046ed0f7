package dpgraph

import "math/bits"

// denseSlack bounds the direct-address table: a join key is grouped by direct
// addressing when the number of codes its value ranges span is at most
// denseSlack·n + denseFloor for n rows — the table then costs no more than
// the hash table it replaces. Dictionary codes and generated integer domains
// are always that dense.
const (
	denseSlack = 4
	denseFloor = 1024
)

// keyTable numbers the distinct join keys of one stage (group) and then
// resolves the parent's keys to those numbers (link). Keys are never boxed:
// when the columns' value ranges are narrow the key packs into an offset
// into a direct-address table; otherwise it goes through an open-addressing
// table keyed by the value itself (one column) or by a 64-bit hash of the
// values that a comparison against the group's first row confirms (several
// columns). One keyTable serves a whole Build; its arrays are reused from
// stage to stage.
type keyTable struct {
	cols    [][]Value // the stage's key columns
	ngroups int
	gid     []int32 // group of every row of the stage

	// Direct addressing: column i contributes (v - mins[i]) at radix
	// spans[i]+1, and table[code] is the group number plus one.
	dense bool
	mins  []Value
	spans []uint64
	table []int32

	// Open addressing with linear probing: slots[i] is the group number plus
	// one (0 = free) and keys[i] its key or hash; first[g] is the first row
	// of group g.
	keys  []uint64
	slots []int32
	shift uint
	first []int32
}

// group numbers the keys of the n rows of cols in order of first appearance
// and returns every row's number (in scratch the next call reuses) and how
// many there are.
func (t *keyTable) group(cols [][]Value, n int) (gid []int32, ngroups int) {
	t.cols, t.ngroups, t.dense = cols, 0, false
	t.gid = grow(t.gid, n)
	if len(cols) == 0 || n == 0 {
		// An empty key: every row falls into one group.
		clear(t.gid)
		t.ngroups = min(n, 1)
		return t.gid, t.ngroups
	}
	if size, ok := t.ranges(n); ok {
		t.dense = true
		t.table = grow(t.table, size)
		clear(t.table)
		for r := 0; r < n; r++ {
			code, _ := t.pack(cols, r)
			g := t.table[code]
			if g == 0 {
				t.ngroups++
				g = int32(t.ngroups)
				t.table[code] = g
			}
			t.gid[r] = g - 1
		}
		return t.gid, t.ngroups
	}
	size := 8
	for size < 2*n {
		size <<= 1
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.keys = grow(t.keys, size)
	t.slots = grow(t.slots, size)
	clear(t.slots)
	t.first = t.first[:0]
	for r := 0; r < n; r++ {
		key := hashKey(cols, r)
		i := t.probe(key, cols, r)
		if t.slots[i] == 0 {
			t.keys[i] = key
			t.first = append(t.first, int32(r))
			t.slots[i] = int32(len(t.first))
		}
		t.gid[r] = t.slots[i] - 1
	}
	t.ngroups = len(t.first)
	return t.gid, t.ngroups
}

// link resolves the key of each of the parent's n states, read from pcols,
// to the stage's group number (-1 when no row of the stage has that key) and
// stores it at links[s*stride+b].
func (t *keyTable) link(pcols [][]Value, n int, links []int32, stride, b int) {
	for s := 0; s < n; s++ {
		links[s*stride+b] = t.lookup(pcols, s)
	}
}

func (t *keyTable) lookup(pcols [][]Value, s int) int32 {
	switch {
	case t.ngroups == 0:
		return -1
	case len(t.cols) == 0:
		return 0
	case t.dense:
		code, ok := t.pack(pcols, s)
		if !ok {
			return -1
		}
		return t.table[code] - 1
	}
	return t.slots[t.probe(hashKey(pcols, s), pcols, s)] - 1
}

// ranges measures the key columns' value ranges and reports the size of the
// direct-address table they need, when that is small enough to use one.
func (t *keyTable) ranges(n int) (int, bool) {
	limit := uint64(denseSlack*n + denseFloor)
	t.mins, t.spans = t.mins[:0], t.spans[:0]
	size := uint64(1)
	for _, col := range t.cols {
		lo, hi := col[0], col[0]
		for _, v := range col[:n] {
			lo, hi = min(lo, v), max(hi, v)
		}
		span := uint64(hi) - uint64(lo) // exact even when hi-lo overflows int64
		if span >= limit {
			return 0, false
		}
		if size *= span + 1; size > limit {
			return 0, false
		}
		t.mins, t.spans = append(t.mins, lo), append(t.spans, span)
	}
	return int(size), true
}

// pack returns row r's offset into the direct-address table; ok is false
// when a value lies outside the stage's ranges (only a parent's can).
func (t *keyTable) pack(cols [][]Value, r int) (code uint64, ok bool) {
	for i, col := range cols {
		d := uint64(col[r]) - uint64(t.mins[i])
		if d > t.spans[i] {
			return 0, false
		}
		code = code*(t.spans[i]+1) + d
	}
	return code, true
}

// hashKey is the open-addressing key of row r: the value itself for a
// single column (exact), a mixed hash of the values otherwise.
func hashKey(cols [][]Value, r int) uint64 {
	if len(cols) == 1 {
		return uint64(cols[0][r])
	}
	var h uint64
	for _, col := range cols {
		h = (h ^ uint64(col[r])) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

// probe returns the slot holding the key of row r of cols, or the free slot
// where it belongs.
func (t *keyTable) probe(key uint64, cols [][]Value, r int) int {
	mask := len(t.slots) - 1
	for i := int((key * 0x9E3779B97F4A7C15) >> t.shift); ; i = (i + 1) & mask {
		g := t.slots[i]
		if g == 0 || (t.keys[i] == key && (len(cols) == 1 || t.sameKey(int(t.first[g-1]), cols, r))) {
			return i
		}
	}
}

// sameKey compares the stage's key at its row a with cols' key at row r.
func (t *keyTable) sameKey(a int, cols [][]Value, r int) bool {
	for i, col := range t.cols {
		if col[a] != cols[i][r] {
			return false
		}
	}
	return true
}

// grow returns s resized to n elements, reallocating only when it must; the
// contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
