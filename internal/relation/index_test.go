package relation

import (
	"sync"
	"testing"
)

// TestGroupIndexMatchesGroupBy pins a small grouping against refGroupBy,
// the map-based group-by it replaced.
func TestGroupIndexMatchesGroupBy(t *testing.T) {
	r := New("R", "a", "b")
	r.Add(1, 1, 10)
	r.Add(2, 1, 20)
	r.Add(3, 2, 10)
	r.Add(4, 1, 10)
	for _, cols := range [][]int{{0}, {1}, {0, 1}, {}} {
		sameGrouping(t, r, cols, nil, r.GroupIndex(cols))
	}
}

func TestGroupIndexCachedAndInvalidated(t *testing.T) {
	r := New("R", "a", "b")
	r.Add(1, 1, 10)
	r.Add(2, 2, 20)
	idx1 := r.GroupIndex([]int{0})
	if got := r.GroupIndex([]int{0}); got != idx1 {
		t.Fatal("second GroupIndex call rebuilt the index without a mutation")
	}
	// A different column subset is a different index.
	if got := r.GroupIndex([]int{1}); got == idx1 {
		t.Fatal("distinct column subsets shared an index")
	}
	v := r.Version()
	r.Add(3, 1, 30)
	if r.Version() <= v {
		t.Fatalf("Version did not increase on Add: %d -> %d", v, r.Version())
	}
	idx2 := r.GroupIndex([]int{0})
	if idx2 == idx1 {
		t.Fatal("GroupIndex not invalidated by Add")
	}
	if w := idx2.Window(0); len(w) != 2 || w[1] != 2 {
		t.Fatalf("rebuilt index missing the new row: window 0 = %v", w)
	}
}

func TestMemoConcurrentReaders(t *testing.T) {
	r := New("R", "a")
	for i := 0; i < 100; i++ {
		r.Add(1, int64(i%7))
	}
	var wg sync.WaitGroup
	got := make([]*Grouping, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = r.GroupIndex([]int{0})
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent readers built distinct indexes")
		}
	}
	// Value v's window holds rows v, v+7, ... ascending.
	if got[0].Len() != 7 {
		t.Fatalf("%d windows, want 7", got[0].Len())
	}
	for g := range int32(7) {
		w := got[0].Window(g)
		if len(w) != (100-int(g)+6)/7 {
			t.Fatalf("window %d has %d rows", g, len(w))
		}
		for k, row := range w {
			if row != g+int32(7*k) {
				t.Fatalf("window %d = %v", g, w)
			}
		}
	}
}

func TestDBVersionMonotone(t *testing.T) {
	db := NewDB()
	v0 := db.Version()
	r := New("R", "a")
	db.AddRelation(r)
	v1 := db.Version()
	if v1 <= v0 {
		t.Fatalf("AddRelation did not bump Version: %d -> %d", v0, v1)
	}
	r.Add(1, 7)
	v2 := db.Version()
	if v2 <= v1 {
		t.Fatalf("row Add did not bump DB Version: %d -> %d", v1, v2)
	}
	// Replacing with an older, smaller relation must still move forward.
	db.AddRelation(New("R", "a"))
	v3 := db.Version()
	if v3 <= v2 {
		t.Fatalf("replacement did not bump Version: %d -> %d", v2, v3)
	}
	db.Alias("R2", db.Relation("R"))
	if db.Version() <= v3 {
		t.Fatal("Alias did not bump Version")
	}
}

func TestDBCloneIdentityAndVersion(t *testing.T) {
	db := NewDB()
	r := New("R", "a")
	r.Add(1, 1)
	db.AddRelation(r)
	c := db.Clone()
	if c.ID() == db.ID() {
		t.Fatal("clone shares the original's ID")
	}
	v := c.Version()
	// Mutating a shared relation is visible through both versions.
	r.Add(2, 2)
	if c.Version() <= v {
		t.Fatal("clone Version blind to shared-relation mutation")
	}
	// Membership changes on the clone leave the original untouched.
	dv := db.Version()
	c.AddRelation(New("S", "b"))
	if db.Relation("S") != nil {
		t.Fatal("clone membership leaked into the original")
	}
	if db.Version() != dv {
		t.Fatal("clone membership change bumped the original's Version")
	}
}
