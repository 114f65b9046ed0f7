package engine

import (
	"fmt"
	"strings"
	"testing"

	"anyk/internal/core"
	"anyk/internal/dioid"
	"anyk/internal/query"
	"anyk/internal/relation"
)

// typedDB builds a two-relation database of string-keyed weighted edges
// encoded through the DB's dictionary, plus the 2-path query over it.
func typedDB(t *testing.T) (*relation.DB, *query.CQ) {
	t.Helper()
	db := relation.NewDB()
	// Weights chosen so every 2-path sum is distinct: ties are resolved
	// differently (deterministically, but differently) across shard layouts,
	// and these tests compare exact row sequences.
	csv := map[string]string{
		"R1": "ada,turing,1\nada,church,5\ngrace,turing,2\n",
		"R2": "turing,von-neumann,2\nturing,godel,4\nchurch,kleene,1.25\n",
	}
	for _, name := range []string{"R1", "R2"} {
		rel, err := relation.LoadCSVTyped(strings.NewReader(csv[name]), db.Dict(), name, "a", "b")
		if err != nil {
			t.Fatal(err)
		}
		db.AddRelation(rel)
	}
	return db, query.PathQuery(2)
}

func TestTypedValsDecodeStrings(t *testing.T) {
	db, q := typedDB(t)
	it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Typed() {
		t.Fatal("iterator over string-keyed relations is not typed")
	}
	for i, typ := range it.Types {
		if typ != relation.TypeString {
			t.Fatalf("output var %s type %s, want string", it.Vars[i], typ)
		}
	}
	row, ok := it.Next()
	if !ok {
		t.Fatal("no results")
	}
	// Cheapest 2-path: ada -> turing -> von-neumann (1 + 2).
	if row.Weight != 3 {
		t.Fatalf("top weight %v, want 3", row.Weight)
	}
	got := it.TypedVals(row.Vals)
	want := []any{"ada", "turing", "von-neumann"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TypedVals = %v, want %v", got, want)
		}
	}
}

// Untyped (int64) queries report Typed() false and TypedVals boxes the raw
// values — the identity view that keeps the v1 wire shape reachable.
func TestTypedValsIdentityForInt64(t *testing.T) {
	db, q := drainDB()
	it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if it.Typed() {
		t.Fatal("int64-only iterator claims to be typed")
	}
	row, _ := it.Next()
	for i, v := range it.TypedVals(row.Vals) {
		if v != row.Vals[i] {
			t.Fatalf("identity decode changed %v to %v", row.Vals[i], v)
		}
	}
}

// A join variable binding columns of different logical types is a compile
// error: the codes belong to unrelated domains and could only ever match by
// accident.
func TestTypedJoinMismatchRejected(t *testing.T) {
	db := relation.NewDB()
	r1, err := relation.LoadCSVTyped(strings.NewReader("ada,1,1\n"), db.Dict(), "R1", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := relation.LoadCSVTyped(strings.NewReader("7,8,1\n"), db.Dict(), "R2", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	db.AddRelation(r1)
	db.AddRelation(r2)
	// Q :- R1(x,y), R2(y,z): y is int64 in both relations — fine.
	if _, err := Enumerate[float64](db, query.PathQuery(2), dioid.Tropical{}, core.Take2); err != nil {
		t.Fatalf("compatible join rejected: %v", err)
	}
	// Q :- R1(x,y), R2(z,x): x is a string column in R1, an int64 column in
	// R2's second position.
	bad := query.NewCQ("bad", nil,
		query.Atom{Rel: "R1", Vars: []string{"x", "y"}},
		query.Atom{Rel: "R2", Vars: []string{"z", "x"}})
	_, err = Enumerate[float64](db, bad, dioid.Tropical{}, core.Take2)
	if err == nil {
		t.Fatal("join across string and int64 columns was accepted")
	}
	if !strings.Contains(err.Error(), "logical types") {
		t.Fatalf("error %q does not explain the type mismatch", err)
	}
}

// Joining typed columns encoded by different dictionaries must be rejected:
// equal codes would mean different logical values.
func TestTypedJoinDictionaryMismatchRejected(t *testing.T) {
	db := relation.NewDB()
	r1, err := relation.LoadCSVTyped(strings.NewReader("ada,x,1\n"), db.Dict(), "R1", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	// R2 deliberately encoded through a foreign dictionary.
	r2, err := relation.LoadCSVTyped(strings.NewReader("x,y,1\n"), relation.NewDictionary(), "R2", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	db.AddRelation(r1)
	db.AddRelation(r2)
	_, err = Enumerate[float64](db, query.PathQuery(2), dioid.Tropical{}, core.Take2)
	if err == nil {
		t.Fatal("join across dictionaries was accepted")
	}
	if !strings.Contains(err.Error(), "dictionaries") {
		t.Fatalf("error %q does not explain the dictionary mismatch", err)
	}
}

// Types resolve through the column each variable binds, not its position in
// the atom: with R(id int64, name string), R(_, y) binds y to the string
// column, so y decodes to names and joins S's string column.
func TestTypedResolutionFollowsAtomCols(t *testing.T) {
	db := relation.NewDB()
	r, err := relation.LoadCSVTyped(strings.NewReader("1,alice,1\n2,bob,2\n"), db.Dict(), "R", "id", "name")
	if err != nil {
		t.Fatal(err)
	}
	s, err := relation.LoadCSVTyped(strings.NewReader("alice,7,1\nbob,8,1\n"), db.Dict(), "S", "name", "n")
	if err != nil {
		t.Fatal(err)
	}
	db.AddRelation(r)
	db.AddRelation(s)
	for _, tc := range []struct {
		src  string
		want [][]any
	}{
		{"Q(y) :- R(_, y)", [][]any{{"alice"}, {"bob"}}},
		{"Q(y,z) :- R(_, y), S(y, z)", [][]any{{"alice", int64(7)}, {"bob", int64(8)}}},
	} {
		q, err := query.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		var got [][]any
		for _, row := range it.Drain(0) {
			got = append(got, it.TypedVals(row.Vals))
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("%s: rows %v, want %v", tc.src, got, tc.want)
		}
	}
}

// The typed view must survive the parallel path and the plan cache: decoded
// rows are identical whichever engine path produced the codes.
func TestTypedValsAcrossParallelismAndCache(t *testing.T) {
	db, q := typedDB(t)
	cache := NewCache(0)
	var ref [][]any
	for _, p := range []int{1, 2, 4} {
		for run := 0; run < 2; run++ { // cold then warm
			it, err := Enumerate[float64](db, q, dioid.Tropical{}, core.Take2,
				Options{Parallelism: p, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			var got [][]any
			for _, row := range it.Drain(0) {
				got = append(got, it.TypedVals(row.Vals))
			}
			if ref == nil {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				t.Fatalf("p=%d run=%d: %d rows, want %d", p, run, len(got), len(ref))
			}
			for i := range ref {
				for c := range ref[i] {
					if got[i][c] != ref[i][c] {
						t.Fatalf("p=%d run=%d row %d: %v, want %v", p, run, i, got[i], ref[i])
					}
				}
			}
		}
	}
}
