// The parallel round engine: an allocation-free rewrite of the serial
// reference loop. Three ideas, in the order they appear below:
//
//   - Arena mailboxes. Instead of one heap slice per inbox, all inboxes of
//     a round live in one flat []Envelope arena laid out with CSR degree
//     offsets (every node broadcasts at most once per step, so a
//     synchronous round delivers at most degree envelopes per node). Two
//     arenas alternate — round r is read from one while round r+1's
//     deliveries are written into the other.
//   - A jitter wheel. With Jitter > 0 a round can deliver more than degree
//     envelopes per node, so deliveries are staged into Jitter+1
//     round-indexed buffers and compacted into a per-round arena when their
//     round comes up. The wheel replaces the pending map[int][]delivery.
//   - Deterministic chunked stepping. Touched nodes (ascending IDs) are
//     split into contiguous chunks, one goroutine per chunk; each chunk
//     appends its sends to a private queue. Queues are merged in chunk
//     order — i.e. ascending sender ID — which is exactly the enqueue order
//     of the serial engine, so inbox order, jitter draws, and every counter
//     are bit-identical to the reference.
//
// Message words ride per-worker word buffers that are round-ring-buffered
// (a word written at send round r is readable until round r+1+Jitter, so a
// ring of Jitter+2 buffers recycles them without copies or GC traffic).
package simnet

import (
	"runtime"
	"slices"
	"sync"

	"bfskel/internal/graph"
)

// sendOp is one queued broadcast: its sender, kind tag and window into the
// worker's word buffer.
type sendOp struct {
	from int32
	kind uint8
	woff int32
	wlen int32
}

// parWorker is the per-chunk send queue. Exactly one stepping goroutine
// owns a worker at a time; the merge phase (single-goroutine) drains all of
// them after the chunks join.
type parWorker struct {
	ops []sendOp
	// words is the current round's word buffer, one slot of ring.
	words []uint64
	ring  [][]uint64
}

func (w *parWorker) push(from int32, kind uint8, words []uint64) {
	off := int32(len(w.words))
	w.words = append(w.words, words...)
	w.ops = append(w.ops, sendOp{from: from, kind: kind, woff: off, wlen: int32(len(words))})
}

// parEngine holds the run-scoped state of the parallel engine.
type parEngine struct {
	s  *Sim
	nw int // worker/chunk budget (GOMAXPROCS at engine build)

	workers []parWorker

	// Synchronous mode (Jitter == 0): double-buffered degree-offset arenas.
	off         []int32 // inbox window of node v: [off[v], off[v+1])
	arena       [2][]Envelope
	fill        [2][]int32
	cur         int     // arena read this round; cur^1 collects next round
	touched     []int32 // receivers stepping this round, ascending
	touchedNext []int32 // receivers of the round being collected, unsorted

	// Jittered mode: round-indexed staging wheel plus a compacted per-round
	// arena (windows sized by actual arrivals, not degree).
	wheel  [][]delivery
	jarena []Envelope
	cnt    []int32 // arrivals per node this round
	pos    []int32 // scatter cursor; ends at each window's upper bound
}

// parEnginePool recycles engine state — mailbox arenas, wheels, worker
// queues and their word rings — across runs. The protocol's four phases
// each build a fresh Sim over the same graph; without recycling, every
// phase would reallocate and re-zero megabytes of arena.
var parEnginePool sync.Pool

// getParEngine takes a pooled engine (or builds one) and fits it to the
// simulation. Release with putParEngine, typically deferred.
func getParEngine(s *Sim) *parEngine {
	e, _ := parEnginePool.Get().(*parEngine)
	if e == nil {
		e = &parEngine{}
	}
	e.fit(s)
	return e
}

// putParEngine drops the run's Sim and scrubs the envelope buffers (so
// pooled scratch never pins a previous run's programs or outgrown word
// buffers) and returns the engine to the pool.
func putParEngine(e *parEngine) {
	e.s = nil
	e.off = nil
	clear(e.arena[0])
	clear(e.arena[1])
	clear(e.jarena[:cap(e.jarena)])
	for i := range e.wheel {
		clear(e.wheel[i][:cap(e.wheel[i])])
		e.wheel[i] = e.wheel[i][:0]
	}
	for i := range e.workers {
		w := &e.workers[i]
		w.ops, w.words = w.ops[:0], nil
	}
	parEnginePool.Put(e)
}

// fitInt32 resizes s to length n, zeroing the reused prefix when asked.
func fitInt32(s []int32, n int, zero bool) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	if zero {
		clear(s)
	}
	return s
}

// fit sizes the engine for one run of s. Buffers are reused at their grown
// capacity; everything state-like is reset.
func (e *parEngine) fit(s *Sim) {
	n := s.g.N()
	e.s = s
	e.nw = runtime.GOMAXPROCS(0)
	if e.nw < 1 {
		e.nw = 1
	}
	if len(e.workers) < e.nw {
		e.workers = append(e.workers, make([]parWorker, e.nw-len(e.workers))...)
	}
	e.workers = e.workers[:e.nw]
	ringLen := 2
	if s.Jitter > 0 {
		ringLen = s.Jitter + 2
	}
	for i := range e.workers {
		w := &e.workers[i]
		for len(w.ring) < ringLen {
			w.ring = append(w.ring, nil)
		}
		w.ring = w.ring[:ringLen]
	}
	e.cur = 0
	e.touched, e.touchedNext = e.touched[:0], e.touchedNext[:0]
	if s.Jitter > 0 {
		for len(e.wheel) < s.Jitter+1 {
			e.wheel = append(e.wheel, nil)
		}
		e.wheel = e.wheel[:s.Jitter+1]
		for i := range e.wheel {
			e.wheel[i] = e.wheel[i][:0]
		}
		e.cnt = fitInt32(e.cnt, n, true)
		e.pos = fitInt32(e.pos, n, false)
		return
	}
	e.off = s.g.Offsets()
	total := int(e.off[n])
	for i := range e.arena {
		if cap(e.arena[i]) < total {
			e.arena[i] = make([]Envelope, total)
		} else {
			e.arena[i] = e.arena[i][:total]
		}
	}
	e.fill[0] = fitInt32(e.fill[0], n, true)
	e.fill[1] = fitInt32(e.fill[1], n, true)
}

// runParallel executes the same round loop as runSerial on the arena
// engine. The observable sequence — message counts per round, deliveries,
// touched sets, inbox order, jitter draws — is identical by construction.
func (s *Sim) runParallel(limit int) (Stats, error) {
	e := getParEngine(s)
	defer putParEngine(e)
	record := s.Span.Enabled()
	e.bindWords()
	e.runChunks(len(s.programs), func(ctx *Context, v int) {
		ctx.at(v)
		s.programs[v].Init(ctx)
	})
	msgs := e.merge()
	if record {
		s.noteRound(0, msgs, 0, len(s.programs))
	}
	for {
		if s.inFlight == 0 {
			s.stats.Rounds = s.round
			return s.stats, nil
		}
		s.round++
		if s.round > limit {
			return s.stats, ErrRoundLimit
		}
		var deliveries int
		if s.Jitter > 0 {
			deliveries = e.distributeJittered()
		} else {
			deliveries = e.swapSync()
		}
		s.inFlight -= deliveries
		e.bindWords()
		touched := e.touched
		jittered := s.Jitter > 0
		e.runChunks(len(touched), func(ctx *Context, i int) {
			v := int(touched[i])
			ctx.at(v)
			s.programs[v].Step(ctx, e.inbox(v, jittered))
			if jittered {
				e.cnt[v] = 0
			} else {
				e.fill[e.cur][v] = 0
			}
		})
		msgs = e.merge()
		if record {
			s.noteRound(s.round, msgs, deliveries, len(touched))
		}
	}
}

// bindWords points every worker's word buffer at this round's ring slot. A
// slot is reused after ring-length rounds, which is past the last round any
// envelope referencing it can be delivered (Jitter+1 later), so the recycle
// never clobbers live message words.
func (e *parEngine) bindWords() {
	slot := e.s.round % len(e.workers[0].ring)
	for i := range e.workers {
		w := &e.workers[i]
		w.words = w.ring[slot][:0]
	}
}

// runChunks steps indices 0..count-1 across contiguous chunks, handing each
// chunk one reusable Context wired to its send queue (one Context per chunk
// rather than per step: the pointer escapes into the Program interface
// call, so a fresh Context per node would be a heap allocation per step).
// With one chunk everything runs inline.
func (e *parEngine) runChunks(count int, fn func(ctx *Context, i int)) {
	graph.ParallelChunks(count, e.nw, func(ci, lo, hi int) {
		ctx := Context{sim: e.s, w: &e.workers[ci]}
		for i := lo; i < hi; i++ {
			fn(&ctx, i)
		}
	})
}

// inbox returns node v's inbox view for this round. The view aliases the
// arena (capacity-capped).
func (e *parEngine) inbox(v int, jittered bool) []Envelope {
	if jittered {
		end := e.pos[v]
		start := end - e.cnt[v]
		return e.jarena[start:end:end]
	}
	lo := int(e.off[v])
	hi := lo + int(e.fill[e.cur][v])
	return e.arena[e.cur][lo:hi:hi]
}

// merge drains the per-worker send queues in chunk order — ascending sender
// ID, matching the serial engine's enqueue order exactly — and routes every
// broadcast into next-round mailboxes (or the jitter wheel). It runs on the
// driving goroutine, so the shared counters and the jitter RNG need no
// synchronisation.
func (e *parEngine) merge() (roundMsgs int) {
	s := e.s
	for wi := range e.workers {
		w := &e.workers[wi]
		for _, op := range w.ops {
			env := Envelope{
				From: int(op.from), Kind: op.kind,
				Words: w.words[op.woff : op.woff+op.wlen : op.woff+op.wlen],
			}
			for _, nb := range s.g.Neighbors(int(op.from)) {
				e.enqueue(int(nb), env)
			}
		}
		roundMsgs += len(w.ops)
		s.stats.Messages += len(w.ops)
		w.ring[s.round%len(w.ring)] = w.words // keep the grown buffer
		w.ops = w.ops[:0]
	}
	return roundMsgs
}

// enqueue routes one envelope to its destination mailbox: the next-round
// arena window in synchronous mode, the staging wheel under jitter. The
// jitter draw happens here, in merged deterministic order, so jittered runs
// are bit-identical across engines and worker counts. A synchronous window
// cannot fill past the degree: each neighbor broadcasts at most once per
// round.
func (e *parEngine) enqueue(to int, env Envelope) {
	s := e.s
	s.inFlight++
	if s.Jitter > 0 {
		arrival := s.round + 1 + s.ensureRNG().Intn(s.Jitter+1)
		slot := arrival % len(e.wheel)
		e.wheel[slot] = append(e.wheel[slot], delivery{to: to, env: env})
		return
	}
	nxt := e.cur ^ 1
	f := e.fill[nxt][to]
	if f == 0 {
		e.touchedNext = append(e.touchedNext, int32(to))
	}
	e.arena[nxt][int(e.off[to])+int(f)] = env
	e.fill[nxt][to] = f + 1
}

// swapSync flips the double-buffered arenas at the top of a synchronous
// round: the mailboxes collected last round become current, the touched
// list is sorted into step order, and receive counters are stamped now —
// at delivery, not enqueue.
func (e *parEngine) swapSync() (deliveries int) {
	s := e.s
	e.cur ^= 1
	e.touched, e.touchedNext = e.touchedNext, e.touched[:0]
	slices.Sort(e.touched)
	fill := e.fill[e.cur]
	for _, v := range e.touched {
		deliveries += int(fill[v])
	}
	if s.stats.NodeRecv != nil {
		for _, v := range e.touched {
			s.stats.NodeRecv[v] += int(fill[v])
		}
	}
	return deliveries
}

// distributeJittered compacts this round's wheel slot into per-node
// windows: count arrivals per node, lay the windows out back to back in
// slot order, then scatter. Window order equals staging order, which equals
// the serial engine's pending-slice order.
func (e *parEngine) distributeJittered() (deliveries int) {
	s := e.s
	idx := s.round % len(e.wheel)
	slot := e.wheel[idx]
	e.touched = e.touched[:0]
	for i := range slot {
		to := slot[i].to
		if e.cnt[to] == 0 {
			e.touched = append(e.touched, int32(to))
		}
		e.cnt[to]++
	}
	slices.Sort(e.touched)
	total := int32(0)
	for _, v := range e.touched {
		e.pos[v] = total
		total += e.cnt[v]
	}
	if cap(e.jarena) < int(total) {
		e.jarena = make([]Envelope, total)
	} else {
		e.jarena = e.jarena[:total]
	}
	for i := range slot {
		d := &slot[i]
		e.jarena[e.pos[d.to]] = d.env
		e.pos[d.to]++
	}
	if s.stats.NodeRecv != nil {
		for _, v := range e.touched {
			s.stats.NodeRecv[v] += int(e.cnt[v])
		}
	}
	e.wheel[idx] = slot[:0]
	return len(slot)
}
