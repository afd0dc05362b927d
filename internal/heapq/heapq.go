// Package heapq is the one binary heap under internal/: Init, Push,
// Pop, Up and Down on a concrete slice, ordered by a less function
// (the root is an element no other is less than). Nothing is boxed
// into an interface value, so a grown slice pushes and pops without
// allocating.
//
// Each operation makes exactly the comparisons and the moves
// container/heap's makes on the same slice — a sift-down takes the
// right child only when it is strictly less than the left, and moves
// a child only when it is strictly less than the sifted element — so
// the heap's layout, and with it the order equal keys and NaN scores
// pop in, is container/heap's. The sifts move a hole instead of
// swapping: the sifted element is written once, where it stops. One
// difference shows past the heap's end: Pop leaves the cell it vacates
// holding the old last element, which container/heap's swaps the popped
// root into. Popping a slice down therefore loses the popped elements
// from its backing array and duplicates others; a caller that needs
// the elements afterwards heaps a copy.
package heapq

// Init establishes the heap order on h in O(len(h)).
func Init[T any](h []T, less func(a, b T) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		Down(h, i, less)
	}
}

// Push appends x to *h and sifts it up to its place.
func Push[T any](h *[]T, x T, less func(a, b T) bool) {
	*h = append(*h, x)
	Up(*h, len(*h)-1, less)
}

// Pop removes and returns the root of *h, which must not be empty. The
// cell it vacates, just past the shortened *h, keeps the old last
// element.
func Pop[T any](h *[]T, less func(a, b T) bool) T {
	q := *h
	n := len(q) - 1
	top := q[0]
	if n > 0 {
		q[0] = q[n]
		Down(q[:n], 0, less)
	}
	*h = q[:n]
	return top
}

// Up sifts h[i] toward the root while it is less than its parent.
func Up[T any](h []T, i int, less func(a, b T) bool) {
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !less(x, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// Down sifts h[i] toward the leaves while a child is less than it.
func Down[T any](h []T, i int, less func(a, b T) bool) {
	n := len(h)
	x := h[i]
	for {
		c := 2*i + 1
		if c >= n || c < 0 { // c < 0 after int overflow
			break
		}
		if r := c + 1; r < n && less(h[r], h[c]) {
			c = r
		}
		if !less(h[c], x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
