package relation

import (
	"math/bits"
	"slices"
)

// denseSlack bounds the direct-address table: a key is grouped by direct
// addressing when the number of codes its value ranges span is at most
// denseSlack·n + denseFloor for n rows — the table then costs no more than
// the hash table it replaces. Dictionary codes and generated integer domains
// are always that dense.
const (
	denseSlack = 4
	denseFloor = 1024
)

// KeyTable numbers the distinct keys of a set of rows (Group) and then
// resolves other rows' keys to those numbers (Lookup: Build links a parent
// stage's states this way, and Grouping.Find a key given as values). Keys
// are never boxed: when the columns' value ranges are narrow the key packs
// into an offset into a direct-address table; otherwise it goes through an
// open-addressing table keyed by the value itself (one column) or by a
// 64-bit hash of the values that a comparison against the group's first row
// confirms (several columns). A table may be reused, Group after Group,
// keeping its arrays; a lookup reads the table and writes nothing, so any
// number of goroutines may look up concurrently between two Groups. The zero
// value is ready to use.
type KeyTable struct {
	cols    [][]Value // the grouped key columns
	ngroups int
	gid     []int32 // group of every grouped row

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

// Group numbers the keys of the n rows of cols in order of first appearance
// and returns every row's number (in scratch the next call reuses) and how
// many there are. The table keeps cols for Lookup.
func (t *KeyTable) Group(cols [][]Value, n int) (gid []int32, ngroups int) {
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
	t.first = grow(t.first, n)[:0]
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

// Lookup returns the group number of the key at row s of pcols (one column
// per key column of the last Group), or -1 when no grouped row has that key.
// It reads the table and pcols and writes nothing.
func (t *KeyTable) Lookup(pcols [][]Value, s int) int32 {
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
func (t *KeyTable) ranges(n int) (int, bool) {
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
// when a value lies outside the grouped rows' ranges (only a probe's can).
func (t *KeyTable) pack(cols [][]Value, r int) (code uint64, ok bool) {
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
func (t *KeyTable) probe(key uint64, cols [][]Value, r int) int {
	mask := len(t.slots) - 1
	for i := int((key * 0x9E3779B97F4A7C15) >> t.shift); ; i = (i + 1) & mask {
		g := t.slots[i]
		if g == 0 || (t.keys[i] == key && (len(cols) == 1 || t.sameKey(int(t.first[g-1]), cols, r))) {
			return i
		}
	}
}

// sameKey compares the grouped key at row a with cols' key at row r.
func (t *KeyTable) sameKey(a int, cols [][]Value, r int) bool {
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

// Grouping files rows under their key — the linear-time grouping with
// constant-time lookup of Section 2.3 and the shared join-key groups of the
// equi-join transformation (Section 5.1). A KeyTable numbers the keys in
// order of first appearance and window g lists the rows filed under key g,
// in the order they were filed: one CSR of window starts and members. A
// Grouping is read-only once built, so any number of goroutines may share
// it; GroupIndex memoizes one per relation and column subset.
type Grouping struct {
	keys    KeyTable
	starts  []int32
	members []int32
}

// NewGrouping files the listed rows (every row ascending when rows is nil)
// under their key: their values in the n-row key columns. The keys are
// numbered over all n rows, so a key only unlisted rows carry keeps an empty
// window.
func NewGrouping(n int, rows []int32, keys ...[]Value) *Grouping {
	x := &Grouping{}
	gid, ngroups := x.keys.Group(keys, n)
	x.starts, x.members = CSR(gid, ngroups, rows)
	x.keys.gid = nil // Group's scratch; lookups never read it
	return x
}

// Len returns the number of windows.
func (x *Grouping) Len() int { return len(x.starts) - 1 }

// Window returns the rows of window g (none for -1).
func (x *Grouping) Window(g int32) []int32 {
	if g < 0 {
		return nil
	}
	return x.members[x.starts[g]:x.starts[g+1]:x.starts[g+1]]
}

// findCols is the widest key Find looks up without allocating.
const findCols = 8

// Find returns the window of the key (one value per key column), or -1 when
// no grouped row has it. It reads the key in place, through one-row column
// windows on the stack, so it writes nothing shared and allocates nothing
// for keys of up to findCols columns; a wider key is copied first.
func (x *Grouping) Find(key ...Value) int32 {
	if len(key) > findCols {
		wide := make([]Value, len(key))
		copy(wide, key)
		cols := make([][]Value, len(wide))
		for i := range wide {
			cols[i] = wide[i : i+1]
		}
		return x.keys.Lookup(cols, 0)
	}
	var cols [findCols][]Value // written as an array, so it stays on the stack
	for i := range key {
		cols[i] = key[i : i+1]
	}
	return x.keys.Lookup(cols[:len(key)], 0)
}

// CSR counting-sorts rows by group: members[starts[g]:starts[g+1]] lists,
// in the order of rows (every row ascending when rows is nil), the rows r
// with gid[r] == g; rows in group -1 are left out.
func CSR(gid []int32, ngroups int, rows []int32) (starts, members []int32) {
	starts = make([]int32, ngroups+1)
	if rows == nil {
		for _, g := range gid {
			if g >= 0 {
				starts[g+1]++
			}
		}
	} else {
		for _, r := range rows {
			if g := gid[r]; g >= 0 {
				starts[g+1]++
			}
		}
	}
	for g := range ngroups {
		starts[g+1] += starts[g]
	}
	members = make([]int32, starts[ngroups])
	next := slices.Clone(starts[:ngroups])
	if rows == nil {
		for r, g := range gid {
			if g >= 0 {
				members[next[g]] = int32(r)
				next[g]++
			}
		}
	} else {
		for _, r := range rows {
			if g := gid[r]; g >= 0 {
				members[next[g]] = r
				next[g]++
			}
		}
	}
	return starts, members
}
