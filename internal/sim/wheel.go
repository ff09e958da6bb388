package sim

import (
	"cmp"
	"math/bits"
	"slices"
)

// The pending set: a time-indexed wheel in front of the 4-ary heap.
//
// Almost every event a running model posts is due within a few milliseconds
// (a serialization time plus a link delay; DESIGN.md §7.1 has the measured
// histogram), and for those a heap's log-depth sift is a search the due time
// already answers. The wheel is wheelSize buckets of 2^wheelShift ns: an
// event due in slot s = at>>wheelShift lives in bucket s&wheelMask while s
// is less than wheelSize slots past base, the slot of the event popped last,
// so a bucket never mixes two revolutions. Everything else — further out,
// behind base, or refused by a bucket — goes to the far heap, exactly as
// before.
//
// Layout. A bucket is a singly linked list in (at, seq) order, its nodes
// int32 indices into one slab shared by the whole wheel, recycled through a
// free list threaded over the same next field: slab memory is proportional
// to the events pending, a pop-then-push reuses the node it just freed, and
// a steady state allocates nothing. Index 0 is the nil link, so the zeroed
// index tables (head and tail per bucket, an occupancy bit per bucket, one
// summary bit per 64 buckets: 33 KB, allocated on the first near push) mean
// "empty". Finding the earliest bucket is two TrailingZeros64 from base.
// base is both what a push measures its distance from and where the scan
// starts, so the two cannot disagree: measure from the clock but scan from
// a cursor that went stale while the far heap was being served, and a
// bucket filled since, one revolution on, is taken for an early one. Every
// pop moves base, from whichever band, so that what is near the clock stays
// near base.
//
// Order. pop takes the earlier of the wheel's head and the heap's head by
// the same strict (at, seq) order the heap uses alone, so pop order is still
// a pure function of the pending set: which band an event sits in, and the
// order events were pushed in, cannot be observed. Appending at a bucket's
// tail is the common case; an out-of-order insert walks from the bucket's
// head, and one that would walk past wheelWalk nodes is refused to the heap
// — as is every later out-of-order insert until the bucket has emptied — so
// a crowd of unordered events inside one microsecond costs what it always
// did.
//
// Nothing here reads a clock. The event popped last was the earliest
// pending, so every wheel event is due in a slot from base up to a
// revolution past it, before and after base moves; where a new event is due
// relative to base decides only which band holds it.

const (
	wheelShift = 10 // a bucket spans 2^10 ns
	wheelSize  = 1 << 12
	wheelMask  = wheelSize - 1
	wheelWalk  = 8 // longest out-of-order insertion walk a bucket accepts
)

type wheelNode struct {
	heapEntry
	next int32 // the bucket's next node, or the next free one; 0 ends both
}

type wheelIndex struct {
	head, tail [wheelSize]int32
	occupied   [wheelSize / 64]uint64 // bit b&63 of word b>>6: bucket b is non-empty
	crowded    [wheelSize / 64]uint64 // same layout: b has refused an insert since it was last empty
	summary    uint64                 // bit w: occupied[w] != 0
}

// eventQueue is the one pending-event structure: every Queue holds one.
type eventQueue struct {
	far  eventHeap
	ix   *wheelIndex // nil until the first near push
	slab []wheelNode // slab[0] is the nil node
	free int32
	near int    // events in the wheel
	base uint64 // slot of the event popped last: no wheel event is due before it
}

func (q *eventQueue) len() int { return q.near + len(q.far) }

// push files x. A slot behind base wraps to a huge distance: the heap's.
func (q *eventQueue) push(x heapEntry) {
	if uint64(x.at>>wheelShift)-q.base >= wheelSize || !q.pushNear(x) {
		q.far.push(x)
	}
}

// pushNear links x into its bucket, or reports that the bucket refused it.
func (q *eventQueue) pushNear(x heapEntry) bool {
	ix := q.ix
	if ix == nil {
		ix = new(wheelIndex)
		q.ix = ix
		q.slab = append(q.slab, wheelNode{})
	}
	b := int(x.at>>wheelShift) & wheelMask
	w, bit := b>>6, uint64(1)<<(b&63)
	prev := ix.tail[b] // the node x goes after; 0: x becomes the head
	if prev != 0 && x.before(q.slab[prev].heapEntry) {
		if ix.crowded[w]&bit != 0 {
			return false
		}
		prev = 0
		for i, walked := ix.head[b], 0; !x.before(q.slab[i].heapEntry); walked++ {
			if walked == wheelWalk {
				ix.crowded[w] |= bit
				return false
			}
			prev, i = i, q.slab[i].next
		}
	}
	n := q.free
	if n != 0 {
		q.free = q.slab[n].next
	} else {
		q.slab = append(q.slab, wheelNode{})
		n = int32(len(q.slab) - 1)
	}
	node := &q.slab[n]
	node.heapEntry = x
	if prev == 0 {
		node.next = ix.head[b]
		ix.head[b] = n
	} else {
		node.next = q.slab[prev].next
		q.slab[prev].next = n
	}
	if node.next == 0 {
		if ix.tail[b] == 0 {
			ix.occupied[w] |= bit
			ix.summary |= 1 << w
		}
		ix.tail[b] = n
	}
	q.near++
	return true
}

// firstBucket returns the wheel's earliest non-empty bucket at or after
// base, wrapping once; the wheel must hold an event.
func (q *eventQueue) firstBucket() int {
	ix := q.ix
	s := int(q.base & wheelMask)
	w := s >> 6
	if m := ix.occupied[w] >> (s & 63); m != 0 {
		return s + bits.TrailingZeros64(m)
	}
	// Later words; failing that the earliest word of the next revolution,
	// which may be w itself with only the bits below s left.
	if m := ix.summary &^ (1<<(w+1) - 1); m != 0 {
		w = bits.TrailingZeros64(m)
	} else {
		w = bits.TrailingZeros64(ix.summary)
	}
	return w<<6 + bits.TrailingZeros64(ix.occupied[w])
}

// next reports the due time of the earliest event and where it sits: a
// wheel bucket, or -1 for the far heap. The queue must be non-empty.
func (q *eventQueue) next() (at Time, bucket int) {
	if q.near == 0 {
		return q.far[0].at, -1
	}
	b := q.firstBucket()
	h := &q.slab[q.ix.head[b]].heapEntry
	if len(q.far) > 0 && q.far[0].before(*h) {
		return q.far[0].at, -1
	}
	return h.at, b
}

// take removes and returns the event next located.
func (q *eventQueue) take(bucket int) heapEntry {
	if bucket < 0 {
		x := q.far.pop()
		q.base = uint64(x.at >> wheelShift)
		return x
	}
	ix := q.ix
	n := ix.head[bucket]
	node := &q.slab[n]
	x := node.heapEntry
	q.base = uint64(x.at >> wheelShift)
	if ix.head[bucket] = node.next; node.next == 0 {
		w, bit := bucket>>6, uint64(1)<<(bucket&63)
		ix.tail[bucket] = 0
		ix.crowded[w] &^= bit
		if ix.occupied[w] &^= bit; ix.occupied[w] == 0 {
			ix.summary &^= 1 << w
		}
	}
	*node = wheelNode{next: q.free} // and do not pin the action from the free list
	q.free = n
	q.near--
	return x
}

// sorted returns every pending event in (at, seq) order.
func (q *eventQueue) sorted() []heapEntry {
	all := slices.Grow(slices.Clone(q.far), q.near)
	if q.near > 0 {
		for _, n := range q.ix.head {
			for ; n != 0; n = q.slab[n].next {
				all = append(all, q.slab[n].heapEntry)
			}
		}
	}
	slices.SortFunc(all, func(a, b heapEntry) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	return all
}
