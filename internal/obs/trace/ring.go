package trace

import "sync"

// ring is the bounded finished-span buffer: fixed capacity, newest evicts
// oldest, snapshot returns oldest-first. The bound is the whole point: it
// is what lets a daemon trace continuously without ever growing.
type ring struct {
	mu   sync.Mutex
	buf  []Record
	next int  // slot the next push lands in
	full bool // buf has wrapped at least once
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]Record, capacity)}
}

// push appends rec, reporting whether an older record was evicted.
func (r *ring) push(rec Record) (evicted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	evicted = r.full
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	return evicted
}

// snapshot copies the live records, oldest first.
func (r *ring) snapshot() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Record(nil), r.buf[:r.next]...)
	}
	out := make([]Record, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// reset drops every record.
func (r *ring) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.buf {
		r.buf[i] = Record{}
	}
	r.next, r.full = 0, false
}
