package relation

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRelationBasics(t *testing.T) {
	r := New("R", "A", "B")
	if r.Arity() != 2 || r.Size() != 0 {
		t.Fatal("bad empty relation")
	}
	i := r.Add(1.5, 10, 20)
	j := r.Add(2.5, 10, 30)
	if i != 0 || j != 1 || r.Size() != 2 {
		t.Fatal("Add indices wrong")
	}
	got := r.ProjectInto(make([]Value, 2), 1, []int{1, 0})
	if got[0] != 30 || got[1] != 10 {
		t.Fatalf("ProjectInto = %v", got)
	}
}

func TestAddArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	New("R", "A").Add(0, 1, 2)
}

func TestDB(t *testing.T) {
	db := NewDB()
	r1 := New("R1", "A", "B")
	r1.Add(0, 1, 2)
	r1.Add(0, 3, 4)
	r2 := New("R2", "B", "C")
	r2.Add(0, 2, 5)
	db.AddRelation(r1)
	db.AddRelation(r2)
	if db.Relation("R1") != r1 || db.Relation("nope") != nil {
		t.Fatal("Relation lookup broken")
	}
	names := db.Names()
	if len(names) != 2 || names[0] != "R1" || names[1] != "R2" {
		t.Fatalf("Names = %v", names)
	}
	// replacing keeps order stable
	r1b := New("R1", "A", "B")
	db.AddRelation(r1b)
	if db.Relation("R1") != r1b || len(db.Names()) != 2 {
		t.Fatal("replacement broken")
	}
}

func TestMakeKeyInjective(t *testing.T) {
	err := quick.Check(func(a, b []int64) bool {
		if len(a) > 4 {
			a = a[:4]
		}
		if len(b) > 4 {
			b = b[:4]
		}
		ka, kb := MakeKey(a), MakeKey(b)
		same := len(a) == len(b)
		if same {
			for i := range a {
				if a[i] != b[i] {
					same = false
					break
				}
			}
		}
		return (ka == kb) == same
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupBy(t *testing.T) {
	r := New("R", "A", "B")
	r.Add(0, 1, 10)
	r.Add(0, 2, 20)
	r.Add(0, 1, 30)
	r.Add(0, 2, 40)
	r.Add(0, 3, 50)
	idx := r.GroupIndex([]int{0})
	if idx.Len() != 3 {
		t.Fatalf("got %d windows", idx.Len())
	}
	// first-seen order: 1, 2, 3
	for g, key := range []Value{1, 2, 3} {
		if got := idx.Find(key); got != int32(g) {
			t.Fatalf("Find(%d) = %d, want window %d", key, got, g)
		}
	}
	if w := idx.Window(idx.Find(1)); len(w) != 2 || w[0] != 0 || w[1] != 2 {
		t.Fatalf("window for key 1 = %v", w)
	}
	if w := idx.Window(idx.Find(3)); len(w) != 1 || w[0] != 4 {
		t.Fatalf("window for key 3 = %v", w)
	}
	if idx.Find(4) != -1 || idx.Window(-1) != nil {
		t.Fatal("an absent key must find no window")
	}
}

func TestGroupByMultiColRandom(t *testing.T) {
	r := New("R", "A", "B", "C")
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		r.Add(0, int64(rnd.Intn(4)), int64(rnd.Intn(4)), int64(rnd.Intn(50)))
	}
	idx := r.GroupIndex([]int{0, 1})
	total := 0
	buf := make([]Value, 2)
	for g := range int32(idx.Len()) {
		w := idx.Window(g)
		total += len(w)
		// every member must project to the window's key, and Find that key
		// must return the window
		key := slices.Clone(r.ProjectInto(buf, int(w[0]), []int{0, 1}))
		for _, row := range w {
			if !slices.Equal(r.ProjectInto(buf, int(row), []int{0, 1}), key) {
				t.Fatal("row in wrong window")
			}
		}
		if got := idx.Find(key...); got != g {
			t.Fatalf("Find(%v) = %d, want %d", key, got, g)
		}
	}
	if total != 500 {
		t.Fatalf("partition lost rows: %d", total)
	}
}

func TestTryAddArityMismatch(t *testing.T) {
	r := New("R", "A", "B")
	if _, err := r.TryAdd(1.0, 1); err == nil {
		t.Fatal("expected arity-mismatch error")
	}
	if _, err := r.TryAdd(1.0, 1, 2, 3); err == nil {
		t.Fatal("expected arity-mismatch error")
	}
	if r.Size() != 0 {
		t.Fatalf("failed TryAdd must not append rows, got %d", r.Size())
	}
	i, err := r.TryAdd(2.5, 7, 8)
	if err != nil || i != 0 {
		t.Fatalf("TryAdd = (%d, %v), want (0, nil)", i, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add must still panic on arity mismatch")
		}
	}()
	r.Add(1.0, 1)
}
