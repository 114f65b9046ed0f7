// Package heapq provides the generic binary-heap priority queues used by all
// any-k enumerators: O(n) heapification (required for the linear-preprocessing
// claims of Lazy and Take2) and pop-min.
package heapq

// Heap is a binary min-heap over T ordered by a caller-supplied strict
// less-than. The zero value is not usable; construct with New or From.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty heap with capacity hint n.
func New[T any](n int, less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{items: make([]T, 0, n), less: less}
}

// From heapifies items in place (O(n)) and wraps them. Ownership of the slice
// transfers to the heap.
func From[T any](items []T, less func(a, b T) bool) *Heap[T] {
	h := &Heap[T]{items: items, less: less}
	for i := len(items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// Len reports the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Peek returns the minimum without removing it; ok is false when empty.
func (h *Heap[T]) Peek() (min T, ok bool) {
	if len(h.items) == 0 {
		var zero T
		return zero, false
	}
	return h.items[0], true
}

// Push inserts x in O(log n).
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum; ok is false when empty.
func (h *Heap[T]) Pop() (min T, ok bool) {
	if len(h.items) == 0 {
		var zero T
		return zero, false
	}
	min = h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero T
	h.items[last] = zero // release references
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return min, true
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			return
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(h.items[l], h.items[m]) {
			m = l
		}
		if r < n && h.less(h.items[r], h.items[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
}

// Heapify orders items in place so that the binary-heap property holds
// (items[i] ≤ items[2i+1], items[2i+2]). O(n).
func Heapify[T any](items []T, less func(a, b T) bool) {
	From(items, less)
}
