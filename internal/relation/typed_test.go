package relation

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// addLogical appends a row of logical values (int64, float64 or string per
// column) to r, encoding each through r's dictionary.
func addLogical(r *Relation, w float64, logical ...any) error {
	vals := make([]Value, len(logical))
	for c, lv := range logical {
		v, err := r.Dict.Encode(r.ColType(c), lv)
		if err != nil {
			return err
		}
		vals[c] = v
	}
	_, err := r.TryAdd(w, vals...)
	return err
}

// decodeRow resolves row i of r into its logical values.
func decodeRow(r *Relation, i int) []any {
	out := make([]any, r.Arity())
	for c := range out {
		out[c] = r.Dict.Decode(r.ColType(c), r.At(i, c))
	}
	return out
}

// rowsOf lists r's physical rows.
func rowsOf(r *Relation) [][]Value {
	out := make([][]Value, r.Size())
	for i := range out {
		out[i] = r.Row(i)
	}
	return out
}

func TestDictionaryEncodeDecodeDense(t *testing.T) {
	d := NewDictionary()
	if c := d.EncodeString("alice"); c != 0 {
		t.Fatalf("first string code %d, want 0", c)
	}
	if c := d.EncodeString("bob"); c != 1 {
		t.Fatalf("second string code %d, want 1", c)
	}
	if c := d.EncodeString("alice"); c != 0 {
		t.Fatalf("re-encode gave %d, want the original 0", c)
	}
	if c := d.EncodeFloat(2.5); c != 0 {
		t.Fatalf("first float code %d, want 0 (independent domain)", c)
	}
	if s, ok := d.DecodeString(1); !ok || s != "bob" {
		t.Fatalf("DecodeString(1) = %q,%v", s, ok)
	}
	if f, ok := d.DecodeFloat(0); !ok || f != 2.5 {
		t.Fatalf("DecodeFloat(0) = %v,%v", f, ok)
	}
	if _, ok := d.DecodeString(99); ok {
		t.Fatal("decoded a code that was never issued")
	}
	if ns, nf := d.Len(); ns != 2 || nf != 1 {
		t.Fatalf("Len = %d,%d want 2,1", ns, nf)
	}
}

func TestSniffTypeWidening(t *testing.T) {
	cases := map[string]Type{
		"42":    TypeInt64,
		"-7":    TypeInt64,
		"3.5":   TypeFloat64,
		"1e10":  TypeFloat64,
		"alice": TypeString,
		"NaN":   TypeString, // unordered floats are opaque labels
		"+Inf":  TypeString,
		"12ab":  TypeString,
	}
	for in, want := range cases {
		if got := SniffType(in); got != want {
			t.Errorf("SniffType(%q) = %s, want %s", in, got, want)
		}
	}
	if WidenType(TypeInt64, TypeFloat64) != TypeFloat64 || WidenType(TypeString, TypeInt64) != TypeString {
		t.Fatal("WidenType is not the max of the chain int64 < float64 < string")
	}
}

func TestLoadCSVTypedMixedColumns(t *testing.T) {
	in := "alice,1,0.25,2.0\nbob,2,0.75,1.0\nalice,3,0.25,3.5\n"
	dict := NewDictionary()
	r, err := LoadCSVTyped(strings.NewReader(in), dict, "C", "who", "id", "score")
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []Type{TypeString, TypeInt64, TypeFloat64}
	for i, want := range wantTypes {
		if r.ColType(i) != want {
			t.Fatalf("col %d type %s, want %s", i, r.ColType(i), want)
		}
	}
	if !r.HasEncodedCols() {
		t.Fatal("typed relation reports no encoded columns")
	}
	// Codes are dense in first-appearance order; row 2 reuses row 0's codes.
	if r.At(0, 0) != 0 || r.At(1, 0) != 1 || r.At(2, 0) != 0 {
		t.Fatalf("string codes %v %v %v, want 0 1 0", r.At(0, 0), r.At(1, 0), r.At(2, 0))
	}
	if r.At(0, 2) != r.At(2, 2) {
		t.Fatalf("equal floats got different codes %v vs %v", r.At(0, 2), r.At(2, 2))
	}
	if r.At(0, 1) != 1 || r.At(2, 1) != 3 {
		t.Fatalf("int64 columns must carry raw values, got %v / %v", r.At(0, 1), r.At(2, 1))
	}
	got := decodeRow(r, 1)
	if got[0] != "bob" || got[1] != int64(2) || got[2] != 0.75 {
		t.Fatalf("decoded row %v", got)
	}
	if r.Weights[2] != 3.5 {
		t.Fatalf("weight %v, want 3.5", r.Weights[2])
	}
}

// A column whose first value looks numeric but later rows don't must widen to
// string over the whole file, not error or split the column's domain.
func TestLoadCSVTypedWidensAcrossRows(t *testing.T) {
	in := "1,0.5\n2.5,0.5\nalice,0.5\n"
	dict := NewDictionary()
	r, err := LoadCSVTyped(strings.NewReader(in), dict, "W", "v")
	if err != nil {
		t.Fatal(err)
	}
	if r.ColType(0) != TypeString {
		t.Fatalf("col type %s, want string (widest)", r.ColType(0))
	}
	want := []string{"1", "2.5", "alice"}
	for i, w := range want {
		if got := decodeRow(r, i)[0]; got != w {
			t.Fatalf("row %d decodes to %v, want %q", i, got, w)
		}
	}
}

// String values in comma-separated files may contain spaces ("New York").
func TestLoadCSVTypedAllowsSpacesInStrings(t *testing.T) {
	in := "New York,NY,1.0\nDonald Knuth,CA,2.0\n"
	r, err := LoadCSVTyped(strings.NewReader(in), NewDictionary(), "C", "city", "state")
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeRow(r, 0)[0]; got != "New York" {
		t.Fatalf("decoded %v, want %q", got, "New York")
	}
}

// An integer too large for exact float64 representation must not widen into
// a float column (rounding would merge distinct keys into one code); the
// column widens to string instead.
func TestLoadCSVTypedHugeIntsDoNotRoundIntoFloats(t *testing.T) {
	// 2^53+1 and 2^53 are distinct int64s that round to the same float64.
	in := "9007199254740993,0.5\n9007199254740992,0.5\n2.5,0.5\n"
	dict := NewDictionary()
	r, err := LoadCSVTyped(strings.NewReader(in), dict, "H", "v")
	if err != nil {
		t.Fatal(err)
	}
	if r.ColType(0) != TypeString {
		t.Fatalf("col type %s, want string (floats cannot hold 2^53+1 exactly)", r.ColType(0))
	}
	if r.At(0, 0) == r.At(1, 0) {
		t.Fatal("distinct huge integers merged into one code")
	}
	if got := decodeRow(r, 0)[0]; got != "9007199254740993" {
		t.Fatalf("decoded %v, want the exact digits back", got)
	}
	// Integers past int64 range are integer literals too: they must sniff as
	// strings, never round into a float column.
	in2 := "9223372036854775808,0.5\n9223372036854775809,0.5\n2.5,0.5\n"
	r2, err := LoadCSVTyped(strings.NewReader(in2), dict, "H2", "v")
	if err != nil {
		t.Fatal(err)
	}
	if r2.ColType(0) != TypeString {
		t.Fatalf("past-int64 column type %s, want string", r2.ColType(0))
	}
	if r2.At(0, 0) == r2.At(1, 0) {
		t.Fatal("distinct past-int64 integers merged into one code")
	}
	// The programmatic float path rejects them outright.
	fr, err := NewTyped("F", dict, []string{"x"}, []Type{TypeFloat64})
	if err != nil {
		t.Fatal(err)
	}
	if err := addLogical(fr, 1, int64(9007199254740993)); err == nil {
		t.Fatal("Encode rounded a non-representable int64 into a float column")
	}
	if err := addLogical(fr, 1, int64(42)); err != nil {
		t.Fatalf("Encode rejected a representable int64: %v", err)
	}
}

// Int64-only data must load as raw values: no dictionary entries, no
// dictionary on the relation, Types all int64 — whatever the spelling of the
// integers.
func TestLoadCSVTypedInt64Passthrough(t *testing.T) {
	in := "1,10,0.5\n2,20,1.5\n007,+5,1\n-0,-9,2\n"
	dict := NewDictionary()
	typed, err := LoadCSVTyped(strings.NewReader(in), dict, "E", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if typed.HasEncodedCols() || typed.Dict != nil {
		t.Fatal("all-int64 data produced encoded columns")
	}
	if ns, nf := dict.Len(); ns != 0 || nf != 0 {
		t.Fatalf("all-int64 data interned %d strings, %d floats", ns, nf)
	}
	want := [][]Value{{1, 10}, {2, 20}, {7, 5}, {0, -9}}
	if got := rowsOf(typed); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
}

// An integer spelled other than canonically keeps its text: a column that
// ends as string stores it verbatim, and -0 in a float column is the float
// -0, exactly as if every field had been buffered as text.
func TestLoadCSVTypedKeepsIntegerSpelling(t *testing.T) {
	dict := NewDictionary()
	r, err := LoadCSVTyped(strings.NewReader("007,-0,1\n+5,1,1\n12,0.5,1\nx,2,1\n"), dict, "S", "s", "f")
	if err != nil {
		t.Fatal(err)
	}
	if r.ColType(0) != TypeString || r.ColType(1) != TypeFloat64 {
		t.Fatalf("types %v, want [string float64]", r.Types)
	}
	var strs []any
	for i := 0; i < r.Size(); i++ {
		strs = append(strs, decodeRow(r, i)[0])
	}
	if want := []any{"007", "+5", "12", "x"}; !reflect.DeepEqual(strs, want) {
		t.Fatalf("string column %v, want %v", strs, want)
	}
	if f := decodeRow(r, 0)[1].(float64); f != 0 || !math.Signbit(f) {
		t.Fatalf("-0 loaded as %v, want the float -0", f)
	}
}

// Codes are issued in row order across columns, as a row-at-a-time load
// would issue them, even though a column's integer prefix is encoded only
// once its type is known.
func TestLoadCSVTypedCodesInRowOrder(t *testing.T) {
	r, err := LoadCSVTyped(strings.NewReader("5,y,1\nx,5,1\n"), NewDictionary(), "S", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	// "5" = 0 and "y" = 1 from row 1, "x" = 2 from row 2.
	if want := [][]Value{{0, 1}, {2, 0}}; !reflect.DeepEqual(rowsOf(r), want) {
		t.Fatalf("codes %v, want %v", rowsOf(r), want)
	}
}

func TestLoadCSVAutoTyped(t *testing.T) {
	dict := NewDictionary()
	r, err := LoadCSVAutoTyped(strings.NewReader("alice,bob,1.5\nbob,carol,2\n"), dict, "E")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Attrs) != 2 || r.Attrs[0] != "A1" {
		t.Fatalf("inferred attrs %v", r.Attrs)
	}
	// "bob" appears in both columns and must share one code: one dictionary
	// per database is what keeps equality joins sound.
	if r.At(0, 1) != r.At(1, 0) {
		t.Fatalf("same string in different columns got codes %v vs %v", r.At(0, 1), r.At(1, 0))
	}
}

func TestAddTypedAndReencode(t *testing.T) {
	d1 := NewDictionary()
	d1.EncodeString("padding") // offset d1's codes so a reencode must remap
	r, err := NewTyped("T", d1, []string{"who", "score"}, []Type{TypeString, TypeFloat64})
	if err != nil {
		t.Fatal(err)
	}
	if err := addLogical(r, 1.0, "alice", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := addLogical(r, 2.0, "bob", 0.25); err != nil {
		t.Fatal(err)
	}
	if err := addLogical(r, 1.0, 7, "oops"); err == nil {
		t.Fatal("Encode accepted values of the wrong logical types")
	}
	if err := addLogical(r, 1.0, "nan", math.NaN()); err == nil {
		t.Fatal("Encode accepted a NaN float value (could never join itself)")
	}
	// Integer literals widen into float columns like CSV ingest does.
	if err := addLogical(r, 1.0, "widen", int64(3)); err != nil {
		t.Fatalf("Encode rejected int64 into a float64 column: %v", err)
	}
	d2 := NewDictionary()
	nr, err := r.Reencode(d2)
	if err != nil {
		t.Fatal(err)
	}
	if nr.Dict != d2 {
		t.Fatal("reencoded relation does not reference the new dictionary")
	}
	if nr.At(0, 0) != 0 { // d2 is fresh: "alice" is its first string
		t.Fatalf("reencoded code %v, want 0", nr.At(0, 0))
	}
	for i := range r.Size() {
		got, want := decodeRow(nr, i), decodeRow(r, i)
		for c := range got {
			if got[c] != want[c] {
				t.Fatalf("row %d col %d: reencoded %v != original %v", i, c, got[c], want[c])
			}
		}
	}
	// Int64-only relations reencode to themselves.
	plain := New("P", "a")
	plain.Add(1, 42)
	if same, err := plain.Reencode(d2); err != nil || same != plain {
		t.Fatalf("int64-only Reencode = %v, %v; want the receiver unchanged", same, err)
	}
}

func TestDBDictSharedAcrossClone(t *testing.T) {
	db := NewDB()
	if db.Dict() == nil {
		t.Fatal("NewDB has no dictionary")
	}
	c := db.Clone()
	if c.Dict() != db.Dict() {
		t.Fatal("Clone does not share the dictionary (codes would diverge across copy-on-write updates)")
	}
}

// NaN and infinite weights must be rejected with the offending line number on
// every loader: NaN breaks the dioid order and the enumeration heaps.
func TestLoadCSVRejectsNonFiniteWeights(t *testing.T) {
	cases := map[string]string{
		"1,2,NaN\n":          "line 1",
		"1,2,0.5\n3,4,nan\n": "line 2",
		"1,2,Inf\n":          "line 1",
		"1,2,-Inf\n":         "line 1",
		"1,2,+inf\n":         "line 1",
		"1 2 1e9999\n":       "line 1", // overflows to +Inf
	}
	for in, want := range cases {
		if _, err := LoadCSVTyped(strings.NewReader(in), NewDictionary(), "E", "a", "b"); err == nil {
			t.Errorf("LoadCSVTyped(%q) accepted a non-finite weight", in)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("LoadCSVTyped(%q) error %q, want mention of %q", in, err, want)
		}
		if _, err := LoadCSVAutoTyped(strings.NewReader(in), NewDictionary(), "E"); err == nil {
			t.Errorf("LoadCSVAutoTyped(%q) accepted a non-finite weight", in)
		}
	}
}
