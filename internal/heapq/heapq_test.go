package heapq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

// isHeap reports whether items satisfies the binary-heap property.
func isHeap[T any](items []T, less func(a, b T) bool) bool {
	for i := 1; i < len(items); i++ {
		if less(items[i], items[(i-1)/2]) {
			return false
		}
	}
	return true
}

func TestEmpty(t *testing.T) {
	h := New[int](0, intLess)
	if h.Len() != 0 {
		t.Fatal("new heap not empty")
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty returned ok")
	}
	if _, ok := h.Peek(); ok {
		t.Fatal("Peek on empty returned ok")
	}
}

func TestPushPopSorted(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(200)
		h := New[int](n, intLess)
		want := make([]int, n)
		for i := range want {
			want[i] = r.Intn(100)
			h.Push(want[i])
		}
		sort.Ints(want)
		for i, w := range want {
			got, ok := h.Pop()
			if !ok || got != w {
				t.Fatalf("trial %d pop %d: got %d,%v want %d", trial, i, got, ok, w)
			}
		}
		if h.Len() != 0 {
			t.Fatal("heap not drained")
		}
	}
}

func TestFromHeapifies(t *testing.T) {
	err := quick.Check(func(xs []int) bool {
		cp := append([]int(nil), xs...)
		h := From(cp, intLess)
		if !isHeap(h.items, intLess) {
			return false
		}
		want := append([]int(nil), xs...)
		sort.Ints(want)
		for _, w := range want {
			got, ok := h.Pop()
			if !ok || got != w {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTake2StaticOrder(t *testing.T) {
	// The property Take2 relies on: every non-root element has a parent that
	// is no heavier, so enumerating via the two-children successor relation
	// never misses the true successor.
	r := rand.New(rand.NewSource(3))
	xs := make([]int, 500)
	for i := range xs {
		xs[i] = r.Intn(100)
	}
	Heapify(xs, intLess)
	for i := 1; i < len(xs); i++ {
		if xs[(i-1)/2] > xs[i] {
			t.Fatal("parent heavier than child")
		}
	}
}

func TestIsHeapDetectsViolation(t *testing.T) {
	if !isHeap([]int{1, 2, 3}, intLess) {
		t.Fatal("valid heap rejected")
	}
	if isHeap([]int{3, 1, 2}, intLess) {
		t.Fatal("invalid heap accepted")
	}
	if !isHeap([]int{}, intLess) || !isHeap([]int{5}, intLess) {
		t.Fatal("trivial heaps rejected")
	}
}
