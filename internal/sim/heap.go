package sim

// The far band of the event queue (wheel.go): what is due beyond the wheel's
// window, or was refused by a bucket, waits in this heap — and with nothing
// in the wheel the queue is exactly this heap.
//
// Layout. The heap is a slice of 32-byte {at, seq, Action} entries: the
// event is the entry, by value, so a sift compares keys that sit in the
// array itself, a pop has nothing to dereference and nothing to skip, and
// scheduling allocates nothing beyond the array's own growth. It is 4-ary —
// node i's children are 4i+1..4i+4, its parent (i-1)/4 — which halves the
// depth of a binary heap (six levels at 4096 entries) and keeps the four
// children of a node inside two cache lines. Sifts move a hole instead of
// swapping: the entry being placed is held in registers and written once.
//
// Order. Entries compare by the strict total order (at, seq); seq is unique
// per scheduler, so no two entries are ever equal and pop order is a pure
// function of the set of pending events, independent of arity, array layout
// or the order the entries were pushed in. That is why neither the heap's
// implementation nor the wheel in front of it can move a digest.

type heapEntry struct {
	at  Time
	seq uint64 // tie-break: FIFO among simultaneous events
	act Action
}

func (a heapEntry) before(b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

type eventHeap []heapEntry

// push inserts x.
func (h *eventHeap) push(x heapEntry) {
	q := append(*h, x)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = x
	*h = q
}

// pop removes and returns the earliest entry. The heap must be non-empty.
func (h *eventHeap) pop() heapEntry {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = heapEntry{} // do not pin the action through the spare capacity
	q = q[:n]
	*h = q
	if n > 0 {
		q.siftDown(0, last)
	}
	return top
}

// siftDown places x in the subtree rooted at the hole i.
func (h eventHeap) siftDown(i int, x heapEntry) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}
