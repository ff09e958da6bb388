// Sharded (parallel) execution backend.
//
// EnableShards partitions the event space into N shard-local queues that
// drain concurrently on a worker pool, while the engine's original heap
// becomes the *global band*: control-plane work that must observe and
// mutate cross-shard state (provisioning, fault injection, telemetry
// export, soft-state scans).
//
// The schedule alternates two phases:
//
//   - a *segment*: every shard i independently drains its events with
//     at < b_i, where b_i is the shard's conservative bound — the earliest
//     instant any other shard could still affect it. With the per-pair
//     lookahead matrix, b_i = min over senders j of (j's earliest pending
//     event + look[j][i]), clamped by the next global event. Without a
//     matrix every pair bound is the single quantum, which degenerates to
//     the classic global min-cut bound.
//   - a *barrier*: cross-shard handoffs buffered during the segment are
//     merged into their destination queues in (source shard, sequence)
//     order, deferred notifications run on the
//     coordinating goroutine in (time, source shard, sequence) order, and
//     per-shard telemetry accumulators merge. Then any due global events
//     run.
//
// Because shard boundaries differ, a barrier may close with one shard far
// ahead of another. Deferred notifications therefore release only below
// the *watermark* (the minimum boundary over all shards): no shard can
// ever emit a note older than that, so the dispatched stream stays
// globally time-sorted, exactly as the serial engine would produce it.
// Notes at or above the watermark are retained, still in per-shard emit
// order, and release at a later barrier — always before any global-band
// event runs.
//
// Determinism: each shard's drain order is fixed by its own (time, seq)
// heap regardless of worker count; the barrier merge orders are fixed by
// shard index and per-shard sequence numbers; and segment boundaries are a
// pure function of queue contents. A run is therefore byte-identical for
// any number of workers, including one — which is how the equivalence
// harness pins parallel output against the serial engine.
//
// Memory model: shard state is only touched by (a) the worker that owns
// the shard during a segment, or (b) the coordinating goroutine between
// segments. Both transitions synchronize through the worker pool's channel
// send and WaitGroup, which establish the necessary happens-before edges.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// handoffMsg is a cross-shard event waiting for the barrier merge.
type handoffMsg struct {
	at  Time
	act Action
}

// noteMsg is a deferred notification: an action that must run on the
// coordinating goroutine (it touches global state) stamped with the
// shard-local time it was emitted.
type noteMsg struct {
	at  Time
	act Action
}

// Handoff schedules act on dst, d from now — the only legal way to move work
// across shards. During a segment d must be at least the pair's lookahead
// bound (the conservative lookahead for this src->dst direction); violating
// that would let a shard affect another within the same segment and is a
// hard error, not a silent determinism bug. The message is buffered in the
// shard's reusable per-destination slab, so steady-state cross-shard sends
// do not allocate, and merged into dst at the next barrier in (source shard,
// send order) sequence.
func (q *Queue) Handoff(dst *Queue, d Time, act Action) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative handoff delay %v", d))
	}
	if dst == q {
		q.PostAfter(d, act)
		return
	}
	if q.draining {
		if p := q.eng.par; d < p.lookFor(q.id, dst.id) {
			panic(fmt.Sprintf("sim: handoff shard %d -> shard %d delay %v below pair lookahead bound %v (global quantum %v)",
				q.id, dst.id, d, p.lookFor(q.id, dst.id), p.quantum))
		}
	}
	q.outTo[dst.id] = append(q.outTo[dst.id], handoffMsg{q.Now() + d, act})
}

// Defer queues act as a deferred notification: it runs at a barrier on the
// coordinating goroutine, with the engine clock set to the shard-local time
// of the Defer call. Notifications from all shards dispatch in (time,
// source shard, sequence) order — across barriers too, via watermark
// retention — so global observers (delivery hooks, SLA watchers, journals)
// see one deterministic, time-sorted stream.
//
// The retained queue is kept sorted by stamp. Emission stamps are
// nondecreasing by construction (the shard clock never runs backwards), so
// the common case is a plain append; the insertion fallback makes retention
// robust to any out-of-order emitter rather than silently breaking the
// time-sorted dispatch contract.
func (q *Queue) Defer(act Action) {
	nt := noteMsg{q.Now(), act}
	n := len(q.notes)
	if n == 0 || q.notes[n-1].at <= nt.at {
		q.notes = append(q.notes, nt)
		return
	}
	i := sort.Search(n, func(i int) bool { return q.notes[i].at > nt.at })
	if i < q.noteLo {
		i = q.noteLo // never reorder behind the dispatch cursor
	}
	q.notes = append(q.notes, noteMsg{})
	copy(q.notes[i+1:], q.notes[i:])
	q.notes[i] = nt
}

// drain executes the shard's events with due time strictly before boundary.
func (q *Queue) drain(boundary Time) {
	q.draining = true
	q.runThrough(boundary - 1)
	q.draining = false
}

// head returns the due time of the queue's earliest event, MaxTime if none.
func (q *Queue) head() Time {
	if q.q.len() == 0 {
		return MaxTime
	}
	at, _ := q.q.next()
	return at
}

// parEngine coordinates the shard queues, the worker pool, and the global
// band (the engine's original heap).
type parEngine struct {
	e         *Engine
	shards    []*Queue
	quantum   Time     // global floor: minimum over all pair bounds
	look      [][]Time // direct pair lookahead matrix [src][dst]; nil = uniform quantum
	closed    [][]Time // min-plus transitive closure of look; governs segment bounds
	workers   int
	onBarrier []func()

	jobs chan *Queue
	wg   sync.WaitGroup
	scan func(int) // when set, workers run this instead of drain (RunOnShards)

	active []*Queue // scratch
	next   []Time   // scratch: per-shard earliest pending event this round
}

// EnableShards switches the engine to the sharded backend with n shard
// queues, the given conservative lookahead quantum, and a worker pool of
// the given size (0 means GOMAXPROCS). Existing queued events stay on the
// global band. Call once, before Run. The quantum is the uniform pair
// bound; SetLookahead may widen individual pairs afterwards.
func (e *Engine) EnableShards(n int, quantum Time, workers int) {
	if e.par != nil {
		panic("sim: EnableShards called twice")
	}
	if n < 1 {
		panic("sim: EnableShards needs at least one shard")
	}
	if quantum <= 0 {
		panic("sim: EnableShards needs a positive lookahead quantum")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	p := &parEngine{e: e, quantum: quantum, workers: workers}
	for i := 0; i < n; i++ {
		p.shards = append(p.shards, &Queue{id: i, eng: e, now: e.band.now, outTo: make([][]handoffMsg, n)})
	}
	e.all = append(e.all, p.shards...)
	p.next = make([]Time, n)
	e.par = p
}

// SetLookahead installs the per-pair lookahead matrix: look[src][dst] is
// the minimum virtual-time distance any causality can travel from shard
// src to shard dst (for a partitioned topology, the minimum propagation
// delay over src->dst cut links; MaxTime when no such link exists). Every
// entry must be at least the EnableShards quantum — the matrix can only
// widen the conservative bound, never narrow the floor that non-matrix-
// aware senders rely on. Call after EnableShards, before Run.
func (e *Engine) SetLookahead(look [][]Time) {
	p := e.par
	if p == nil {
		panic("sim: SetLookahead requires a sharded engine")
	}
	n := len(p.shards)
	if len(look) != n {
		panic(fmt.Sprintf("sim: lookahead matrix has %d rows, engine has %d shards", len(look), n))
	}
	m := make([][]Time, n)
	for i, row := range look {
		if len(row) != n {
			panic(fmt.Sprintf("sim: lookahead row %d has %d entries, engine has %d shards", i, len(row), n))
		}
		m[i] = make([]Time, n)
		for j, v := range row {
			if i == j {
				m[i][j] = 0 // diagonal is unused: same-shard sends are local
				continue
			}
			if v < p.quantum {
				panic(fmt.Sprintf("sim: pair lookahead %d -> %d bound %v below quantum %v", i, j, v, p.quantum))
			}
			m[i][j] = v
		}
	}
	p.look = m
	p.recomputeClosure()
}

// recomputeClosure rebuilds the min-plus transitive closure of the direct
// pair matrix (Floyd–Warshall over saturating addition). Segment bounds
// must use the closure, not the direct matrix: shard j's pending event can
// reach shard i through an intermediate shard k in look[j][k]+look[k][i]
// virtual time even when no direct j->i cut link exists — a bound built
// from direct entries alone would let i race past a multi-hop arrival and
// clamp it into the past. O(n³) on the shard count, once per SetLookahead.
func (p *parEngine) recomputeClosure() {
	n := len(p.shards)
	c := p.closed
	if c == nil {
		c = make([][]Time, n)
		for i := range c {
			c[i] = make([]Time, n)
		}
		p.closed = c
	}
	for i := range c {
		copy(c[i], p.look[i])
		c[i][i] = 0
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if i == k {
				continue
			}
			ik := c[i][k]
			if ik == MaxTime {
				continue
			}
			for j := 0; j < n; j++ {
				if v := satAdd(ik, c[k][j]); v < c[i][j] {
					c[i][j] = v
				}
			}
		}
	}
}

// PairLookahead returns the conservative bound for src->dst causality: the
// matrix entry when one is installed, the uniform quantum otherwise
// (0 when serial).
func (e *Engine) PairLookahead(src, dst int) Time {
	if e.par == nil {
		return 0
	}
	return e.par.lookFor(src, dst)
}

func (p *parEngine) lookFor(src, dst int) Time {
	if p.look == nil {
		return p.quantum
	}
	return p.look[src][dst]
}

// closedFor is the transitive bound used for segment boundaries: the
// earliest a causality chain from src (possibly through other shards) can
// touch dst.
func (p *parEngine) closedFor(src, dst int) Time {
	if p.closed == nil {
		return p.quantum
	}
	return p.closed[src][dst]
}

// Sharded reports whether the parallel backend is enabled.
func (e *Engine) Sharded() bool { return e.par != nil }

// NumShards returns the shard count (0 when serial).
func (e *Engine) NumShards() int { return len(e.all) - 1 }

// Quantum returns the conservative lookahead floor (0 when serial).
func (e *Engine) Quantum() Time {
	if e.par == nil {
		return 0
	}
	return e.par.quantum
}

// OnBarrier registers fn to run on the coordinating goroutine at the end of
// every barrier (after handoff merges and deferred notifications). Used to
// fold per-shard telemetry accumulators into their global instruments.
func (e *Engine) OnBarrier(fn func()) {
	e.par.onBarrier = append(e.par.onBarrier, fn)
}

// RunOnShards runs fn(i) for every shard index on the engine's worker
// pool and waits for all of them. It is the fan-out primitive that lets
// global-band work parallelize its shard-confined portion (a soft-state
// scan's read-only path checks, per-shard bookkeeping sweeps).
//
// Contract: legal only from the coordinating goroutine between segments —
// a global-band event, a barrier hook, or outside Run. fn(i) must confine
// its writes to state owned by shard i (or striped by i) and may only read
// shared state that no other fn invocation writes.
func (e *Engine) RunOnShards(fn func(shard int)) {
	p := e.par
	if p == nil {
		panic("sim: RunOnShards requires a sharded engine")
	}
	if p.jobs == nil {
		for i := range p.shards {
			fn(i)
		}
		return
	}
	p.scan = fn
	p.wg.Add(len(p.shards))
	for _, s := range p.shards {
		p.jobs <- s
	}
	p.wg.Wait()
	p.scan = nil
}

// run is the sharded main loop shared by Run and RunUntil.
func (p *parEngine) run(deadline Time) {
	p.startWorkers()
	defer p.stopWorkers()
	// Work queued before Run (setup-time injections) may already have
	// produced handoffs or notifications; settle them first.
	p.flush(MaxTime)
	for {
		// Earliest event per shard and the earliest global event decide the
		// phase and the segment bounds.
		e0 := MaxTime
		for i, s := range p.shards {
			t := s.head()
			p.next[i] = t
			if t < e0 {
				e0 = t
			}
		}
		band := &p.e.band
		g0 := band.head()
		if e0 == MaxTime && g0 == MaxTime {
			if p.hasRetainedNotes() {
				// Retained notes are all that is left; they may generate
				// fresh work, so settle and re-examine.
				p.flush(MaxTime)
				continue
			}
			break // quiescent
		}
		if min64(e0, g0) > deadline {
			if p.hasRetainedNotes() {
				p.flush(MaxTime)
				continue
			}
			break
		}
		if g0 <= e0 {
			// Control first at equal times: on the serial engine,
			// setup-scheduled control events carry lower sequence numbers
			// than data events scheduled mid-flight, so they run first
			// there too. Globals are a barrier — every shard has finished
			// the preceding segment, so control sees settled state. The
			// clock only moves forward: a global scheduled from a barrier
			// callback can land behind notifications already dispatched.
			//
			// Retained notes below g0 must observe their timestamps before
			// control runs at g0, and any work they create may reorder the
			// horizon — release exactly those and re-examine. Notes at or
			// past g0 stay retained: a shard that raced ahead of this
			// global may have stamped them, while a slower shard can still
			// produce earlier ones.
			if p.hasRetainedBelow(g0) {
				p.flush(g0)
				continue
			}
			if band.now < g0 {
				band.now = g0
			}
			band.runThrough(g0)
			// Globals may Defer through shard clocks at the barrier; those
			// notes stamp at >= g0 and stay retained until a future
			// watermark passes them. This flush merges the handoffs and
			// runs the barrier hooks.
			p.flush(g0)
			continue
		}
		// Segment: each shard advances to its own conservative bound
		//
		//	b_i = min(g0, min over senders j != i of next_j + closed[j][i])
		//
		// — the earliest instant any other shard's pending work could reach
		// it, where closed is the min-plus transitive closure of the pair
		// matrix (multi-hop chains through intermediate shards count). The
		// shard owning the globally earliest event always has b_i > next_i
		// (every pair bound is positive), so progress is guaranteed. W, the minimum bound over all shards, is the note
		// release watermark: no shard can emit a note older than its own
		// bound.
		W := MaxTime
		p.active = p.active[:0]
		for i, s := range p.shards {
			b := g0
			for j := range p.shards {
				if j == i || p.next[j] == MaxTime {
					continue
				}
				if c := satAdd(p.next[j], p.closedFor(j, i)); c < b {
					b = c
				}
			}
			if deadline < MaxTime && b > deadline+1 {
				b = deadline + 1
			}
			if W > b {
				W = b
			}
			if p.next[i] < b {
				s.limit = b
				p.active = append(p.active, s)
			}
		}
		p.segment()
		p.flush(W)
	}
	if deadline < MaxTime {
		if p.e.band.now < deadline {
			p.e.band.now = deadline
		}
		for _, s := range p.shards {
			if s.now < deadline {
				s.now = deadline
			}
		}
	} else {
		// Quiescent Run: settle the engine clock at the global maximum so
		// post-run reads (utilization over elapsed time) match serial.
		for _, s := range p.shards {
			if s.now > p.e.band.now {
				p.e.band.now = s.now
			}
		}
	}
}

// segment drains every active shard to its own boundary, in parallel.
func (p *parEngine) segment() {
	if p.jobs == nil || len(p.active) == 1 {
		for _, s := range p.active {
			s.drain(s.limit)
		}
	} else {
		p.wg.Add(len(p.active))
		for _, s := range p.active {
			p.jobs <- s
		}
		p.wg.Wait()
	}
	// Shard clocks deliberately stay at each shard's last-executed event
	// time (not the boundary): deferred notifications and utilization
	// reads then see exactly the timestamps the serial engine produces.
}

// flush settles the inter-shard state at a barrier: merge handoff slabs,
// dispatch deferred notifications older than the watermark W (which may
// generate more of both — loop until stable), then run the barrier hooks
// once. Notes at or past W stay retained for a later barrier.
func (p *parEngine) flush(W Time) {
	for {
		moved := p.mergeHandoffs()
		if p.dispatchNotes(W) {
			moved = true
		}
		if !moved {
			break
		}
	}
	for _, fn := range p.onBarrier {
		fn()
	}
}

// mergeHandoffs folds every source shard's per-destination slab into the
// destination queues. Order is (source shard, send sequence) per
// destination: slabs are already in send order and sources visit in index
// order, and a destination ties equal times by arrival sequence.
func (p *parEngine) mergeHandoffs() bool {
	moved := false
	for di, dst := range p.shards {
		for _, src := range p.shards {
			slab := src.outTo[di]
			for i, h := range slab {
				x := heapEntry{h.at, dst.seq, h.act}
				if x.at < dst.now {
					// Setup- and barrier-origin sends clamp, and count,
					// exactly as Post would outside a segment; in-segment
					// sends can never arrive in the destination's past
					// (that is what the pair bounds guarantee).
					x.at = dst.now
					dst.clamped++
				}
				dst.seq++
				dst.q.push(x)
				slab[i] = handoffMsg{}
				moved = true
			}
			src.outTo[di] = slab[:0]
		}
	}
	return moved
}

// dispatchNotes runs every retained notification with stamp below W, in
// (time, source shard, emit sequence) order, with the engine clock set to
// each note's stamp. Per-shard queues are kept sorted by pushNote, so a
// k-way cursor merge replaces the former collect-and-sort pass. Callbacks
// may emit new notes (appended behind the cursors) and handoffs; the
// caller loops until stable.
func (p *parEngine) dispatchNotes(W Time) bool {
	ran := false
	for {
		best := -1
		var bestAt Time
		for i, s := range p.shards {
			c := s.noteLo
			if c >= len(s.notes) {
				continue
			}
			at := s.notes[c].at
			if at >= W {
				continue
			}
			if best < 0 || at < bestAt {
				best, bestAt = i, at
			}
		}
		if best < 0 {
			break
		}
		s := p.shards[best]
		nt := s.notes[s.noteLo]
		s.notes[s.noteLo] = noteMsg{}
		s.noteLo++
		ran = true
		if p.e.band.now < nt.at {
			p.e.band.now = nt.at
		}
		nt.act.Run()
	}
	// Compact each queue: drop the dispatched prefix, keep retained tails.
	for _, s := range p.shards {
		if s.noteLo == 0 {
			continue
		}
		n := copy(s.notes, s.notes[s.noteLo:])
		for i := n; i < len(s.notes); i++ {
			s.notes[i] = noteMsg{}
		}
		s.notes = s.notes[:n]
		s.noteLo = 0
	}
	return ran
}

// hasRetainedNotes reports whether any shard holds undispatched
// notifications.
func (p *parEngine) hasRetainedNotes() bool {
	for _, s := range p.shards {
		if len(s.notes) > 0 {
			return true
		}
	}
	return false
}

// hasRetainedBelow reports whether any shard holds an undispatched
// notification stamped before t. Queues are sorted, so the head decides.
func (p *parEngine) hasRetainedBelow(t Time) bool {
	for _, s := range p.shards {
		if len(s.notes) > 0 && s.notes[0].at < t {
			return true
		}
	}
	return false
}

func (p *parEngine) startWorkers() {
	if p.workers <= 1 {
		return
	}
	jobs := make(chan *Queue)
	p.jobs = jobs
	for i := 0; i < p.workers; i++ {
		go func() {
			for s := range jobs {
				if fn := p.scan; fn != nil {
					fn(s.id)
				} else {
					s.drain(s.limit)
				}
				p.wg.Done()
			}
		}()
	}
}

func (p *parEngine) stopWorkers() {
	if p.jobs != nil {
		close(p.jobs)
		p.jobs = nil
	}
}

func min64(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// satAdd adds two times, saturating at MaxTime.
func satAdd(a, b Time) Time {
	if a > MaxTime-b {
		return MaxTime
	}
	return a + b
}
