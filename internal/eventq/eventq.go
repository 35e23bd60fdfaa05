// Package eventq is the discrete-event queue shared by the packet
// simulator (internal/simnet) and the fleet simulator (internal/fleet).
//
// The queue is a binary min-heap of pointer-free Entry values ordered by
// (At, Seq). It holds no payload: each entry carries a Slot that indexes
// the caller's own payload table, so the heap's backing array is never
// scanned by the garbage collector and a push or pop moves 24-byte
// values instead of boxing pointers through an interface as
// container/heap does. Callers give every live entry a distinct
// (At, Seq) key, which makes pop order a pure function of the keys
// regardless of how the heap arranges ties internally.
package eventq

// Entry is one pending event.
type Entry struct {
	At   int64  // firing time (a time.Duration, kept raw)
	Seq  uint64 // tie-break among entries with equal At: lower fires first
	Slot int32  // index into the caller's payload table
}

// before reports whether e fires strictly before o.
func (e Entry) before(o Entry) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	return e.Seq < o.Seq
}

// Heap is a min-heap of entries. The zero value is an empty heap.
type Heap struct {
	es []Entry
}

// New returns an empty heap with room for n entries before it grows.
func New(n int) Heap { return Heap{es: make([]Entry, 0, n)} }

// Len returns the number of queued entries.
func (h *Heap) Len() int { return len(h.es) }

// Min returns the earliest entry without removing it. The heap must not
// be empty.
func (h *Heap) Min() Entry { return h.es[0] }

// Push adds an entry.
func (h *Heap) Push(e Entry) {
	h.es = append(h.es, e)
	es := h.es
	i := len(es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(es[p]) {
			break
		}
		es[i] = es[p]
		i = p
	}
	es[i] = e
}

// Pop removes and returns the earliest entry. The heap must not be
// empty.
func (h *Heap) Pop() Entry {
	es := h.es
	top := es[0]
	n := len(es) - 1
	last := es[n]
	es = es[:n]
	h.es = es
	if n == 0 {
		return top
	}
	// Sift the former last entry down from the root, moving the hole
	// instead of swapping.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && es[r].before(es[c]) {
			c = r
		}
		if !es[c].before(last) {
			break
		}
		es[i] = es[c]
		i = c
	}
	es[i] = last
	return top
}
