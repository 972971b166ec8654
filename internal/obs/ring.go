package obs

// ring is the bounded buffer behind the command trace, the decision log and
// the digest log: it keeps the most recent limit entries and counts every
// entry ever offered. Storage grows with use up to limit, so a short run
// never pays for a large capacity.
type ring[T any] struct {
	buf   []T
	limit int
	total uint64
}

// add appends v, overwriting the oldest entry once the ring is full.
func (r *ring[T]) add(v T) {
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.total%uint64(r.limit)] = v
	}
	r.total++
}

// dropped returns how many entries were overwritten.
func (r *ring[T]) dropped() uint64 { return r.total - uint64(len(r.buf)) }

// items returns the retained entries, oldest first (a copy; nil when
// empty).
func (r *ring[T]) items() []T {
	if len(r.buf) == 0 {
		return nil
	}
	start := int(r.total % uint64(len(r.buf)))
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...)
}
