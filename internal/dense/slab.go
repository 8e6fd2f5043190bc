package dense

// Slab is the shard-partitioned companion to Map: a pre-sizeable
// structure-of-arrays store for per-node state, keyed by dense
// non-negative IDs. Unlike Map it keeps no shared bookkeeping — no
// element count, no growth on the read path — so once Grow has sized
// the dense window, goroutines operating on disjoint key sets (the
// engine's region shards) may Put, Ptr and Delete concurrently without
// synchronisation: every operation inside the window touches only the
// slots of the keys it was given.
//
// Keys outside the dense window (negative, or at least maxDense) fall
// back to a boxed map. The fallback preserves Slab's faithfulness as a
// map for arbitrary IDs — the public broker API accepts any node ID —
// but it is NOT shard-safe; sharded execution must stay inside the
// Grow-ed window, which holds by construction because simulation node
// IDs are assigned densely from zero.
type Slab[V any] struct {
	vals    []V
	present []bool
	// sparse boxes out-of-window entries so Ptr can hand out a stable,
	// mutable pointer for them too.
	sparse map[int]*V
}

// Grow extends the dense window to at least n slots, so every later
// Put/Ptr/Delete with a key in [0, n) is growth-free and shard-safe.
// Shrinking is not supported; a smaller n is a no-op.
func (s *Slab[V]) Grow(n int) {
	if n > maxDense {
		n = maxDense
	}
	if n <= len(s.vals) {
		return
	}
	vals := make([]V, n)
	copy(vals, s.vals)
	present := make([]bool, n)
	copy(present, s.present)
	s.vals, s.present = vals, present
}

// Ptr returns a pointer to the value stored under key, or nil when the
// key is absent. Dense-window pointers alias the slab's storage: they
// are invalidated by a later Grow (or an out-of-window Put that grows
// the window), so callers must not retain them across growth.
//
//adf:hotpath
func (s *Slab[V]) Ptr(key int) *V {
	if key >= 0 && key < len(s.vals) {
		if s.present[key] {
			return &s.vals[key]
		}
		return nil
	}
	return s.sparse[key]
}

// Put stores value under key, replacing any existing entry. Keys inside
// the Grow-ed window are written in place (shard-safe for disjoint
// keys); keys beyond the window grow it when still below maxDense, and
// anything else lands in the fallback map (single-threaded only).
func (s *Slab[V]) Put(key int, value V) {
	if key >= 0 && key < maxDense {
		if key >= len(s.vals) {
			s.Grow(growSize(key))
		}
		s.vals[key] = value
		s.present[key] = true
		return
	}
	if s.sparse == nil {
		s.sparse = make(map[int]*V)
	}
	// Box a branch-local copy: taking the parameter's address would move
	// value to the heap on every Put, dense-window births included.
	boxed := value
	s.sparse[key] = &boxed
}

// PutPtr stores value under key and returns the stored entry's pointer,
// combining Put and Ptr for birth sites that initialise the record
// through the pointer.
func (s *Slab[V]) PutPtr(key int, value V) *V {
	s.Put(key, value)
	if key >= 0 && key < len(s.vals) {
		return &s.vals[key]
	}
	return s.sparse[key]
}

// growSize picks the post-growth window for a first touch of key:
// doubling growth amortises repeated out-of-window Puts, clamped to the
// dense bound.
func growSize(key int) int {
	n := 2 * (key + 1)
	if n > maxDense {
		n = maxDense
	}
	return n
}

// Delete removes key and reports whether it was present.
func (s *Slab[V]) Delete(key int) bool {
	if key >= 0 && key < len(s.vals) {
		if !s.present[key] {
			return false
		}
		var zero V
		s.vals[key] = zero
		s.present[key] = false
		return true
	}
	if _, ok := s.sparse[key]; ok {
		delete(s.sparse, key)
		return true
	}
	return false
}

// Count returns the number of stored entries. It scans the presence
// array — Slab keeps no shared counter so shards never contend — which
// is fine for its callers (summaries, digests), none of which are
// per-node hot paths.
func (s *Slab[V]) Count() int {
	n := 0
	for _, p := range s.present {
		if p {
			n++
		}
	}
	return n + len(s.sparse)
}

// Range calls f with a pointer to every entry — dense keys in ascending
// order first, then fallback keys in unspecified order — until f
// returns false.
func (s *Slab[V]) Range(f func(key int, value *V) bool) {
	for k := range s.present {
		if s.present[k] && !f(k, &s.vals[k]) {
			return
		}
	}
	for k, v := range s.sparse {
		if !f(k, v) {
			return
		}
	}
}

// Cap returns the current dense-window size.
func (s *Slab[V]) Cap() int { return len(s.vals) }
