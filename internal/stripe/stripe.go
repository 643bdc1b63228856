// Package stripe is the lock-striped table behind dpmd's per-device
// state: the fleet's sessions and the ingest daemon's aggregation
// windows. A Table is a power-of-two array of stripes, each a mutex
// and the state it guards, and a device id routes to its stripe by
// FNV-1a hash. Work on one device runs inline, in the caller's
// goroutine, under its stripe's lock; whole-table passes (flush, idle
// sweep, drain) lock one stripe at a time, so no pass ever holds two
// stripes of the same table.
package stripe

import "sync"

// Hash is the FNV-1a hash every table routes with.
func Hash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// RoundUp returns n rounded up to a power of two, at least 1.
func RoundUp(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Table is a fixed set of stripes, each guarding one S.
type Table[S any] struct {
	stripes []Stripe[S]
	mask    uint64
}

// Stripe is one mutex and the state it guards.
type Stripe[S any] struct {
	mu    sync.Mutex
	state S
}

// New returns a table of n stripes, n rounded up to a power of two;
// init prepares each stripe's state.
func New[S any](n int, init func(*S)) *Table[S] {
	n = RoundUp(n)
	t := &Table[S]{stripes: make([]Stripe[S], n), mask: uint64(n - 1)}
	for i := range t.stripes {
		init(&t.stripes[i].state)
	}
	return t
}

// Len returns the stripe count.
func (t *Table[S]) Len() int { return len(t.stripes) }

// Stripe returns stripe i, 0 ≤ i < Len().
func (t *Table[S]) Stripe(i int) *Stripe[S] { return &t.stripes[i] }

// For returns the stripe key routes to.
func (t *Table[S]) For(key string) *Stripe[S] {
	return &t.stripes[Hash(key)&t.mask]
}

// Each runs fn on every stripe's state in stripe order, holding that
// stripe's lock and no other.
func (t *Table[S]) Each(fn func(*S)) {
	for i := range t.stripes {
		st := &t.stripes[i]
		fn(st.Lock())
		st.Unlock()
	}
}

// Lock locks the stripe and returns its state, which the caller may
// touch until Unlock.
func (st *Stripe[S]) Lock() *S {
	st.mu.Lock()
	return &st.state
}

// Unlock releases the stripe.
func (st *Stripe[S]) Unlock() { st.mu.Unlock() }
