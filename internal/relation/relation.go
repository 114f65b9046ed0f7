// Package relation provides the relational substrate: weighted tuples over an
// integer domain, named relations, databases, and the one way rows are
// grouped by key — KeyTable and Grouping (keys.go), built in linear time with
// constant-time lookup (Section 2.3) — that relation indexes, the cycle
// decomposition and the DP-graph construction share.
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
// rows are allowed. Row-shaped access (Row, AppendRow, ProjectInto) assembles
// values out of the column blocks on demand; hot paths read columns directly
// via At/Col.
//
// Relations are append-only to every reader: rows below Size() never change
// in place. Add and TryAdd write only past the old length, and SetAt writes
// into a fresh copy of its column, so a window col[:n:n] (or Weights[:n:n])
// taken at Size() n is a snapshot no later mutation reaches, and readers may
// alias the column and weight blocks instead of copying them: Gather hands
// out such windows, and query lowering, the cycle decomposition and
// GroupIndex read through them. A reader that only holds such a window may
// even run while another goroutine appends.
//
// A relation lazily accretes derived read-only structures — groupings by key
// (GroupIndex) and arbitrary memos (Memo) — that are invalidated wholesale
// when a row is added. Mutation is not safe concurrently with any other use
// of the relation itself, but any number of readers (including index
// builders) may run concurrently once the relation stops changing; the HTTP
// service guarantees that with copy-on-write database registration.
type Relation struct {
	Name  string
	Attrs []string
	// Weights[i] is row i's input weight. Like the column blocks it is only
	// ever appended to: never write an element below Size() in place.
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

// SetAt overwrites column col of row i, restamping the version so derived
// indexes and plan caches are invalidated. Rows below Size() never change in
// place, so it writes into a fresh copy of the column, O(n) per call: a
// reader that aliased the old block keeps seeing the old value.
func (r *Relation) SetAt(i, col int, v Value) {
	r.cols[col] = slices.Clone(r.cols[col])
	r.cols[col][i] = v
	r.version.Store(nextStamp())
}

// Col returns column c's contiguous value block, aligned with row ids. It is
// live storage, not a copy, and callers must treat it as read-only; since
// rows below Size() never change in place, a reader may keep the window
// Col(c)[:n:n] as a snapshot of the first n rows.
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

// ProjectInto writes the values of row at the given column positions into
// dst (which must have len(cols) capacity) and returns it, so build loops
// can reuse one scratch buffer.
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

// colsSig encodes a column subset as a memo key fragment.
func colsSig(prefix string, cols []int) string {
	sig := prefix
	for _, c := range cols {
		sig += ":" + strconv.Itoa(c)
	}
	return sig
}

// GroupIndex returns the (lazily built, cached) grouping of r's rows by
// their values in cols: windows in order of first appearance, each listing
// its rows ascending, and Find resolving a key to its window. The grouping is
// invalidated when the relation mutates; callers must treat it as read-only.
func (r *Relation) GroupIndex(cols []int) *Grouping {
	return r.FilteredGroupIndex(cols, nil)
}

// Gather returns the columns cols at the rows ids, one slice per column: for
// nil ids (every row) windows col[:n:n] of the relation's own blocks, which
// no later mutation reaches (see Relation), and otherwise the listed rows
// copied, in order, into one block of their own.
func (r *Relation) Gather(cols []int, ids []int) [][]Value {
	blocks := make([][]Value, len(cols))
	if ids == nil {
		n := r.Size()
		for i, c := range cols {
			blocks[i] = r.cols[c][:n:n]
		}
		return blocks
	}
	n := len(ids)
	flat := make([]Value, n*len(cols))
	for i, c := range cols {
		block, src := flat[i*n:(i+1)*n:(i+1)*n], r.cols[c]
		for k, id := range ids {
			block[k] = src[id]
		}
		blocks[i] = block
	}
	return blocks
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
		u := uint64(v)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return Key{multi: string(b), n: len(vals)}
}
