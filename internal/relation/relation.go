// Package relation provides the relational substrate: weighted tuples over an
// integer domain, named relations, databases, and the hash-grouping helpers
// (built in linear time, constant-time lookup, Section 2.3) that the DP-graph
// construction relies on.
package relation

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// Value is a domain value. Queries use equality only, so an integer-encoded
// domain loses no generality (string dictionaries map onto it).
type Value = int64

// stampCounter is the global monotone stamp source behind every Version():
// each mutation anywhere takes a fresh stamp, so "newest stamp visible from
// here" is a valid version for any object graph that only grows or is
// replaced wholesale.
var stampCounter atomic.Uint64

// nextStamp returns a fresh stamp, strictly larger than every stamp handed
// out before it.
func nextStamp() uint64 { return stampCounter.Add(1) }

// Relation is a named, weighted relation stored column-major: column c of row
// i lives at cols[c][i], one contiguous []int64 block per column, addressed
// by row-id. Row i has input weight Weights[i]. Relations are bags: duplicate
// rows are allowed. Row-shaped access (Row, AppendRow, Project) assembles
// values out of the column blocks on demand; hot paths read columns directly
// via At/Col.
//
// A relation lazily accretes derived read-only structures — hash indexes
// (GroupIndex) and arbitrary memos (Memo) — that are invalidated wholesale
// when a row is added. Mutation is not safe concurrently with anything else,
// but any number of readers (including index builders) may run concurrently
// once the relation stops changing; the HTTP service guarantees that with
// copy-on-write database registration.
type Relation struct {
	Name    string
	Attrs   []string
	Weights []float64

	// Types is the logical column schema: Types[i] says what the physical
	// int64 codes of column i decode to. A nil Types (the common case for
	// code-constructed relations) means every column is a plain int64 whose
	// code is its value. Non-int64 columns resolve through Dict.
	Types []Type
	// Dict decodes the relation's encoded columns. Relations registered in
	// one DB share the DB's dictionary so equal logical values get equal
	// codes and joins across relations stay sound. Nil when Types needs no
	// dictionary.
	Dict *Dictionary

	// cols[c][i] is column c of row i: the columnar storage proper.
	cols [][]Value

	version atomic.Uint64

	memoMu      sync.Mutex
	memoVersion uint64
	memo        map[string]*memoEntry
}

// memoEntry is one derived structure, possibly still being built: done is
// closed once val (or panicked) is set, so waiters on an in-flight build
// block on the channel instead of on the relation-wide memo lock.
type memoEntry struct {
	done     chan struct{}
	val      any
	panicked bool
}

// New returns an empty relation with the given schema; every column is a
// plain int64. Use NewTyped for dictionary-encoded logical schemas.
func New(name string, attrs ...string) *Relation {
	r := &Relation{Name: name, Attrs: attrs, cols: make([][]Value, len(attrs))}
	r.version.Store(nextStamp())
	return r
}

// NewTyped returns an empty relation with a logical column schema resolved
// through dict. len(types) must equal len(attrs); dict may be nil only when
// no column needs one.
func NewTyped(name string, dict *Dictionary, attrs []string, types []Type) (*Relation, error) {
	if len(types) != len(attrs) {
		return nil, fmt.Errorf("relation %s: %d column types for %d attributes", name, len(types), len(attrs))
	}
	r := New(name, attrs...)
	r.Types = append([]Type(nil), types...)
	if r.HasEncodedCols() {
		if dict == nil {
			return nil, fmt.Errorf("relation %s: typed columns need a dictionary", name)
		}
		r.Dict = dict
	}
	return r, nil
}

// ColType returns the logical type of column i (TypeInt64 when the relation
// has no typed schema).
func (r *Relation) ColType(i int) Type {
	if r.Types == nil {
		return TypeInt64
	}
	return r.Types[i]
}

// HasEncodedCols reports whether any column stores dictionary codes rather
// than plain int64 values — i.e. whether decoding this relation's rows is
// more than the identity.
func (r *Relation) HasEncodedCols() bool {
	for _, t := range r.Types {
		if t != TypeInt64 {
			return true
		}
	}
	return false
}

// AddTyped appends a row of logical values (int64/int, float64, string per
// the column schema), encoding through the relation's dictionary. It is the
// programmatic twin of typed CSV ingest.
func (r *Relation) AddTyped(w float64, logical ...any) (int, error) {
	if len(logical) != len(r.Attrs) {
		return -1, fmt.Errorf("relation %s: row arity %d != schema arity %d", r.Name, len(logical), len(r.Attrs))
	}
	vals := make([]Value, len(logical))
	for i, lv := range logical {
		t := r.ColType(i)
		d := r.Dict
		if t != TypeInt64 && d == nil {
			return -1, fmt.Errorf("relation %s col %d: %s column without a dictionary", r.Name, i+1, t)
		}
		v, err := d.Encode(t, lv)
		if err != nil {
			return -1, fmt.Errorf("relation %s col %d: %w", r.Name, i+1, err)
		}
		vals[i] = v
	}
	return r.TryAdd(w, vals...)
}

// DecodeRow resolves one physical row into its logical values (int64,
// float64, or string per column) against the relation's dictionary.
func (r *Relation) DecodeRow(row []Value) []any {
	out := make([]any, len(row))
	for i, v := range row {
		out[i] = r.Dict.Decode(r.ColType(i), v)
	}
	return out
}

// Reencode returns a relation with the same logical contents whose encoded
// columns are interned into dict instead of r's dictionary. Relations without
// encoded columns are returned unchanged (their physical rows are their
// logical values). The HTTP service uses it when an upload raced a dataset
// replacement and must be re-based onto the new dataset's dictionary.
func (r *Relation) Reencode(dict *Dictionary) (*Relation, error) {
	if !r.HasEncodedCols() {
		return r, nil
	}
	nr, err := NewTyped(r.Name, dict, r.Attrs, r.Types)
	if err != nil {
		return nil, err
	}
	vals := make([]Value, r.Arity())
	for i := 0; i < r.Size(); i++ {
		for c := range vals {
			t := r.ColType(c)
			var encodeErr error
			vals[c], encodeErr = dict.Encode(t, r.Dict.Decode(t, r.cols[c][i]))
			if encodeErr != nil {
				return nil, fmt.Errorf("relation %s row %d col %d: %w", r.Name, i, c+1, encodeErr)
			}
		}
		if _, err := nr.TryAdd(r.Weights[i], vals...); err != nil {
			return nil, err
		}
	}
	return nr, nil
}

// Version returns the relation's mutation stamp: it strictly increases every
// time a row is added or updated, and two relations never share a stamp, so
// (pointer aside) the stamp identifies both the relation and its current
// contents.
func (r *Relation) Version() uint64 { return r.version.Load() }

// TryAdd appends a row with a weight and returns its index, rejecting arity
// mismatches with an error. The values are copied into the column blocks, so
// callers may reuse vals. Data-ingest paths (CSV loading, uploads) use it so
// malformed input surfaces as a client error instead of crashing the process.
func (r *Relation) TryAdd(w float64, vals ...Value) (int, error) {
	if len(vals) != len(r.Attrs) {
		return -1, fmt.Errorf("relation %s: row arity %d != schema arity %d", r.Name, len(vals), len(r.Attrs))
	}
	for c, v := range vals {
		r.cols[c] = append(r.cols[c], v)
	}
	r.Weights = append(r.Weights, w)
	r.version.Store(nextStamp())
	return len(r.Weights) - 1, nil
}

// Add appends a row with a weight and returns its index. It panics on arity
// mismatch: schema errors in code-constructed relations are programming
// errors, not data errors. Ingest paths use TryAdd instead.
func (r *Relation) Add(w float64, vals ...Value) int {
	i, err := r.TryAdd(w, vals...)
	if err != nil {
		panic(err.Error())
	}
	return i
}

// Grow reserves room for n more rows, so a loader that knows its row count
// appends without regrowing (and re-copying) the column blocks.
func (r *Relation) Grow(n int) {
	for c := range r.cols {
		r.cols[c] = slices.Grow(r.cols[c], n)
	}
	r.Weights = slices.Grow(r.Weights, n)
}

// Size returns the number of rows.
func (r *Relation) Size() int { return len(r.Weights) }

// At returns column col of row i.
func (r *Relation) At(i, col int) Value { return r.cols[col][i] }

// SetAt overwrites column col of row i in place, restamping the version so
// derived indexes and plan caches are invalidated.
func (r *Relation) SetAt(i, col int, v Value) {
	r.cols[col][i] = v
	r.version.Store(nextStamp())
}

// Col returns column c's contiguous value block, aligned with row ids.
// Callers must treat it as read-only; it is live storage, not a copy.
func (r *Relation) Col(c int) []Value { return r.cols[c] }

// Row assembles row i into a fresh slice. It is the row-shaped compatibility
// view over the columnar storage — fine for cold paths and tests; hot loops
// should read columns via At/Col or reuse a buffer with AppendRow.
func (r *Relation) Row(i int) []Value {
	return r.AppendRow(make([]Value, 0, len(r.cols)), i)
}

// AppendRow appends row i's values to dst and returns it, allocating nothing
// when dst has capacity.
func (r *Relation) AppendRow(dst []Value, i int) []Value {
	for _, col := range r.cols {
		dst = append(dst, col[i])
	}
	return dst
}

// Rows materializes every row as a slice view. The returned rows share one
// flat backing block (row-major), so the whole view costs two allocations; it
// is a snapshot, not live storage. Kept as the thin compatibility surface for
// row-oriented consumers — hot paths read columns instead.
func (r *Relation) Rows() [][]Value {
	n, a := r.Size(), r.Arity()
	flat := make([]Value, n*a)
	rows := make([][]Value, n)
	for i := 0; i < n; i++ {
		row := flat[i*a : (i+1)*a : (i+1)*a]
		for c, col := range r.cols {
			row[c] = col[i]
		}
		rows[i] = row
	}
	return rows
}

// SizeBytes reports the relation's resident heap size exactly against the
// columnar layout: the capacity of every column block and of the weights
// block (8 B per value), plus the column-table backing array (one slice
// header per column). Indexes and memoized artifacts are not counted — this
// is the admission-control-facing "how big is the raw data" figure,
// deliberately cheap enough to call at metrics-scrape time.
func (r *Relation) SizeBytes() int64 {
	const sliceHeader = 24
	n := int64(cap(r.Weights)) * 8
	n += int64(cap(r.cols)) * sliceHeader
	for _, col := range r.cols {
		n += int64(cap(col)) * 8
	}
	return n
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Attrs) }

// AttrIndex returns the position of attr in the schema, or -1.
func (r *Relation) AttrIndex(attr string) int {
	for i, a := range r.Attrs {
		if a == attr {
			return i
		}
	}
	return -1
}

// Project returns the values of row at the given column positions.
func (r *Relation) Project(row int, cols []int) []Value {
	return r.ProjectInto(make([]Value, len(cols)), row, cols)
}

// ProjectInto writes the values of row at the given column positions into
// dst (which must have len(cols) capacity) and returns it. The zero-alloc
// twin of Project for scratch-buffer reuse in build loops.
func (r *Relation) ProjectInto(dst []Value, row int, cols []int) []Value {
	dst = dst[:len(cols)]
	for i, c := range cols {
		dst[i] = r.cols[c][row]
	}
	return dst
}

// Memo returns the derived structure cached under key, building it with
// build on first use. The whole memo table is dropped the moment the
// relation mutates, so a cached structure always describes the current rows.
// Memo is safe for concurrent readers: at most one builder runs per key and
// everyone else shares its result, but the build itself runs outside the
// memo lock, so an expensive build (a large join trie, say) never blocks
// lookups or builds of other keys on the same relation.
//
// A panicking build propagates to its own caller and removes the in-flight
// entry, so concurrent waiters (and later calls) retry the build instead of
// observing a poisoned nil value.
func (r *Relation) Memo(key string, build func() any) any {
	for {
		r.memoMu.Lock()
		if v := r.version.Load(); r.memo == nil || r.memoVersion != v {
			r.memo = map[string]*memoEntry{}
			r.memoVersion = v
		}
		if e, ok := r.memo[key]; ok {
			r.memoMu.Unlock()
			<-e.done // val/panicked are written before done is closed
			if e.panicked {
				continue // the builder panicked; retry with a fresh entry
			}
			return e.val
		}
		e := &memoEntry{done: make(chan struct{})}
		r.memo[key] = e
		r.memoMu.Unlock()
		defer func() {
			if e.panicked {
				// Drop the poisoned entry (unless the table was already reset
				// by a mutation) so the next call re-runs the build, then let
				// the panic propagate to this builder's caller.
				r.memoMu.Lock()
				if r.memo[key] == e {
					delete(r.memo, key)
				}
				r.memoMu.Unlock()
			}
			close(e.done) // release waiters even if build panicked
		}()
		e.panicked = true // cleared on successful build; set if build panics
		e.val = build()
		e.panicked = false
		return e.val
	}
}

// Index is a hash index over the projection of a relation onto a column
// subset: Groups[g] lists the ids of the rows sharing the g-th distinct
// projection, in row order; Keys[g] is that projection's encoded key and
// Lookup inverts it. Built in linear time with constant-time lookup
// (Section 2.3); GroupIndex caches one per column subset.
type Index struct {
	Keys   []Key
	Groups [][]int
	Lookup map[Key]int
}

// colsSig encodes a column subset as a memo key fragment.
func colsSig(prefix string, cols []int) string {
	sig := prefix
	for _, c := range cols {
		sig += ":" + strconv.Itoa(c)
	}
	return sig
}

// GroupIndex returns the (lazily built, cached) hash index of r over cols.
// The index is invalidated when the relation mutates; callers must treat it
// as read-only.
func (r *Relation) GroupIndex(cols []int) *Index {
	return r.Memo(colsSig("groupidx", cols), func() any {
		keys, groups, lookup := GroupBy(r, cols)
		return &Index{Keys: keys, Groups: groups, Lookup: lookup}
	}).(*Index)
}

// DB is a database: a set of named relations. Self-joins reference the same
// *Relation from multiple query atoms.
type DB struct {
	rels  map[string]*Relation
	order []string
	id    uint64
	stamp uint64
	dict  *Dictionary
}

// NewDB returns an empty database with a fresh dictionary.
func NewDB() *DB {
	return NewDBWithDict(NewDictionary())
}

// NewDBWithDict returns an empty database resolving typed relations through
// dict. Callers that encode relations before deciding which database they
// land in (the HTTP upload path) use it to register the database around the
// dictionary the rows were already interned into.
func NewDBWithDict(dict *Dictionary) *DB {
	if dict == nil {
		dict = NewDictionary()
	}
	return &DB{rels: map[string]*Relation{}, id: nextStamp(), stamp: nextStamp(), dict: dict}
}

// Dict returns the database's shared dictionary. Every typed relation of one
// DB encodes through this single dictionary, so equal logical values carry
// equal codes across relations and equality joins on the physical domain are
// exactly equality joins on the logical one. Clones share it (it is
// append-only, so sharing is sound under copy-on-write membership updates).
func (db *DB) Dict() *Dictionary { return db.dict }

// ID returns a process-unique identifier for this DB instance (clones get
// fresh ids). Compiled-plan caches key entries by (ID, Version) so two
// databases that happen to share a version stamp can never collide.
func (db *DB) ID() uint64 { return db.id }

// Version returns a monotone version for the database's current contents:
// it increases whenever a member relation gains a row (Add/TryAdd) and
// whenever the membership changes (AddRelation, Alias), including
// replacement by an older relation. Equal versions therefore imply identical
// contents, which is what compiled-plan caches key on.
func (db *DB) Version() uint64 {
	v := db.stamp
	for _, name := range db.order {
		if rv := db.rels[name].Version(); rv > v {
			v = rv
		}
	}
	return v
}

// AddRelation registers r, replacing any previous relation of the same name.
func (db *DB) AddRelation(r *Relation) {
	if _, ok := db.rels[r.Name]; !ok {
		db.order = append(db.order, r.Name)
	}
	db.rels[r.Name] = r
	db.stamp = nextStamp()
}

// Alias registers r under an additional name (self-joins over one physical
// relation, as in the paper's experiments where every query atom reads the
// same EDGES table).
func (db *DB) Alias(name string, r *Relation) {
	if _, ok := db.rels[name]; !ok {
		db.order = append(db.order, name)
	}
	db.rels[name] = r
	db.stamp = nextStamp()
}

// Clone returns a shallow copy of the database: a fresh name table sharing
// the underlying relations. Changing the clone's membership (AddRelation,
// Alias) leaves the original untouched, enabling copy-on-write updates of
// shared databases.
func (db *DB) Clone() *DB {
	c := &DB{
		rels:  make(map[string]*Relation, len(db.rels)),
		order: append([]string(nil), db.order...),
		id:    nextStamp(),
		stamp: nextStamp(),
		dict:  db.dict,
	}
	for k, v := range db.rels {
		c.rels[k] = v
	}
	return c
}

// Relation returns the named relation or nil.
func (db *DB) Relation(name string) *Relation { return db.rels[name] }

// NewDerived creates an empty typed relation wired to this database's
// dictionary, so derived tuples join base tuples on equal codes. The caller
// fills it and registers it with AddRelation; version stamps then come from
// the normal mutation path, keeping compiled-plan cache invalidation exact.
func (db *DB) NewDerived(name string, attrs []string, types []Type) (*Relation, error) {
	return NewTyped(name, db.dict, attrs, types)
}

// Names returns relation names in insertion order.
func (db *DB) Names() []string { return append([]string(nil), db.order...) }

// MaxSize returns n, the maximum cardinality over all relations.
func (db *DB) MaxSize() int {
	n := 0
	for _, name := range db.order {
		if s := db.rels[name].Size(); s > n {
			n = s
		}
	}
	return n
}

// Key encodes a value vector as a comparable map key. Single-column keys (the
// common case for the graph queries in the paper) avoid the string encoding.
type Key struct {
	single Value
	multi  string
	n      int
}

// Key1 builds the Key of a single value without touching a slice — the
// zero-alloc fast path for single-column join keys.
func Key1(v Value) Key { return Key{single: v, n: 1} }

// MakeKey builds a Key from vals.
func MakeKey(vals []Value) Key {
	if len(vals) == 1 {
		return Key1(vals[0])
	}
	b := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		b = AppendKeyBytes(b, v)
	}
	return Key{multi: string(b), n: len(vals)}
}

// AppendKeyBytes appends the 8-byte key encoding of v to dst and returns it —
// the scratch-buffer building block for multi-column keys: encode a probe
// into a reused []byte and look it up with m[string(buf)] on a map[string]V,
// which the compiler performs without materializing a string. Only inserting
// a new key needs a real string allocation.
func AppendKeyBytes(dst []byte, v Value) []byte {
	u := uint64(v)
	return append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// keyFromBytes wraps an encoded multi-column key (see AppendKeyBytes) in a
// Key, copying b into an owned string.
func keyFromBytes(b []byte, n int) Key {
	return Key{multi: string(b), n: n}
}

// GroupBy partitions row indices of r by the projection onto cols, preserving
// first-seen group order. Linear time, the "data structure built in linear
// time supporting constant-time lookups" of Section 2.3. The group map is
// pre-sized from the relation's cardinality, single-column keys read the
// column block directly, and multi-column keys encode into a reused scratch
// buffer (one string allocation per distinct group, not per row).
func GroupBy(r *Relation, cols []int) (keys []Key, groups [][]int, index map[Key]int) {
	n := r.Size()
	index = make(map[Key]int, n)
	if len(cols) == 1 {
		for i, v := range r.cols[cols[0]] {
			k := Key1(v)
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
	byEnc := make(map[string]int, n)
	scratch := make([]byte, 0, len(cols)*8)
	for i := 0; i < n; i++ {
		scratch = scratch[:0]
		for _, c := range cols {
			scratch = AppendKeyBytes(scratch, r.cols[c][i])
		}
		g, ok := byEnc[string(scratch)] // zero-alloc lookup
		if !ok {
			k := keyFromBytes(scratch, len(cols))
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
