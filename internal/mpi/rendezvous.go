package mpi

import (
	"bytes"
	"sync"
)

// Shared-memory rendezvous for collectives. Barrier, Bcast, Allreduce and
// Allgather first try a rendezvous slot before running their message
// algorithm. Each rank deposits its post-hook arguments in the slot keyed
// by (comm, seq) — the key its internal tags use — and parks. When every
// member has arrived and the members agree (same collective, count,
// datatype, op and root, and every buffer access the rank's message
// schedule would make lies inside its buffer), the last rank to arrive
// computes every rank's result and wakes the others: one wake per rank
// instead of a tree of channel messages.
//
// The message algorithms stay the reference semantics. Any disagreement —
// a mismatched parameter, an access that would need heap slack, a caller
// outside the communicator — marks the slot fallback, and every parked
// rank and every later arriver runs the message algorithm from its start.
// No message has been sent for that instance yet, so the fallback run is
// the message run. A member that never arrives (crashed, or a comm fault
// moved it to another sequence number) freezes the world with ranks
// parked in the slot; the supervisor then releases every open slot to
// fallback and only reaps if the world freezes again (World.supervise).
//
// Results are bit-exact with the message path, not merely equal as
// numbers: the flipped bits a campaign injects make NaN payloads and
// signed zeros, for which Sum, Max and Min are order-dependent. So the
// completing rank replays each rank's own sequence of combine calls — the
// recursive-doubling butterfly, or reduce-to-zero + broadcast when the
// size is not a power of two — through the same combine the message
// algorithms use.

// slotKey identifies one collective instance.
type slotKey struct {
	comm Comm
	seq  int64
}

// slotMember is one rank's deposit: who to wake and where its data lives.
type slotMember struct {
	rank       *Rank
	send, recv *Buffer
}

// slot is one collective instance's meeting point. The parameters are the
// first arrival's; later arrivals must match them.
type slot struct {
	key      slotKey
	typ      CollType
	count    int32
	dtype    Datatype
	op       Op
	root     int32
	arrived  int  // members that have deposited (fallback slots: passed)
	fallback bool // every member runs the message algorithm
	members  []slotMember
}

// rendezvous is a world's slot table. It lives in the runShell, so slots
// are recycled across runs; reclaim empties it after every run.
type rendezvous struct {
	mu   sync.Mutex
	open map[slotKey]*slot
	free []*slot
}

// Wake verdicts sent on Rank.wake.
const (
	wakeDone     uint8 = iota // the completing rank wrote this rank's result
	wakeFallback              // run the message algorithm
	wakeKilled                // the world was cancelled
)

// rendezvous tries the fast path for the collective described by call,
// whose sequence number on ci is seq. It returns true when the collective
// is complete for this rank (its outputs written), false when the caller
// must run the message algorithm.
func (r *Rank) rendezvous(call *CollectiveCall, ci *commInfo, seq int64) bool {
	w := r.world
	rv := w.rdv
	size := len(ci.members)
	if rv == nil || size < 2 {
		return false
	}
	a := call.Args
	me, member := ci.rankOf[r.id]
	ok := member && inBounds(call.Type, a, size)

	rv.mu.Lock()
	if w.killed() {
		// World.kill's sweep has run or will not see this rank.
		rv.mu.Unlock()
		panic(Killed{Reason: w.killWhy.Load().(string)})
	}
	key := slotKey{comm: a.Comm, seq: seq}
	s := rv.open[key]
	if s == nil {
		s = rv.newSlot(key, call.Type, a, size)
	}
	if s.fallback || !ok || !s.agrees(call.Type, a) {
		if !s.fallback {
			s.release(wakeFallback)
		}
		if member {
			// Count genuine members through a fallback slot so it can be
			// recycled once the last of them has passed.
			s.arrived++
			if s.arrived == size {
				rv.recycle(s)
			}
		}
		rv.mu.Unlock()
		return false
	}
	s.members[me] = slotMember{rank: r, send: a.Send, recv: a.Recv}
	s.arrived++
	if s.arrived < size {
		// Park on the rank's own channel only: its one waker is the
		// completing rank, a disagreeing arrival, the supervisor's release
		// or the kill sweep, so no select on the shared done channel.
		r.blockKind.Store(blockSlot)
		w.blocked.Add(1)
		rv.mu.Unlock()
		w.notifyQuiesce()
		switch <-r.wake {
		case wakeDone:
			return true
		case wakeFallback:
			return false
		}
		panic(Killed{Reason: w.killWhy.Load().(string)})
	}
	// Last arrival: the slot leaves the table, so nothing else can reach
	// it while the results are computed outside the lock.
	delete(rv.open, key)
	rv.mu.Unlock()
	s.complete(r)
	for i := range s.members {
		if i != me {
			s.members[i].rank.unpark(wakeDone)
		}
	}
	rv.mu.Lock()
	clear(s.members)
	rv.free = append(rv.free, s)
	rv.mu.Unlock()
	return true
}

// recycle drops a slot from the table and returns it to the free list.
// Called with rv.mu held.
func (rv *rendezvous) recycle(s *slot) {
	delete(rv.open, s.key)
	clear(s.members)
	rv.free = append(rv.free, s)
}

// newSlot opens the slot for key with the first arrival's parameters.
// Called with rv.mu held.
func (rv *rendezvous) newSlot(key slotKey, t CollType, a *Args, size int) *slot {
	var s *slot
	if k := len(rv.free); k > 0 {
		s = rv.free[k-1]
		rv.free[k-1] = nil
		rv.free = rv.free[:k-1]
	} else {
		s = new(slot)
	}
	members := s.members
	if cap(members) < size {
		members = make([]slotMember, size)
	}
	members = members[:size]
	clear(members)
	*s = slot{key: key, typ: t, count: a.Count, dtype: a.Dtype, op: a.Op, root: a.Root, members: members}
	rv.open[key] = s
	return s
}

// agrees reports whether an arrival's parameters match the slot's.
func (s *slot) agrees(t CollType, a *Args) bool {
	return s.typ == t && s.count == a.Count && s.dtype == a.Dtype && s.op == a.Op && s.root == a.Root
}

// release marks the slot fallback and wakes every member that has
// deposited in it with verdict. Each such member is parked there: only a
// completion (which first takes the slot out of the table) or a release
// wakes it, and a fallback slot is never released twice. Called with
// rv.mu held.
func (s *slot) release(verdict uint8) {
	s.fallback = true
	for i := range s.members {
		if p := s.members[i].rank; p != nil {
			p.unpark(verdict)
		}
	}
}

// unpark wakes a rank parked in a slot. The waker moves the rank out of
// the blocked count before the rank runs, so the supervisor never sees a
// woken rank as frozen.
func (r *Rank) unpark(verdict uint8) {
	r.blockKind.Store(blockNone)
	r.world.blocked.Add(-1)
	r.wake <- verdict
}

// inBounds reports whether every ReadAt and WriteAt the rank's message
// schedule would make lies inside its buffers, so the message path could
// neither fault nor touch heap slack.
func inBounds(t CollType, a *Args, size int) bool {
	n := 0
	if t != CollBarrier {
		n = int(a.Count) * a.Dtype.Size()
	}
	switch t {
	case CollBcast:
		return a.Send.Len() >= n
	case CollAllreduce:
		return a.Send.Len() >= n && a.Recv.Len() >= n
	case CollAllgather:
		return a.Send.Len() >= n && a.Recv.Len() >= size*n
	}
	return true
}

// complete computes and writes every member's result. Every member has
// arrived and is parked, so their buffers are quiescent; all contributions
// are read before any result is written, which keeps in-place calls (send
// and recv sharing memory) exact.
func (s *slot) complete(r *Rank) {
	size := len(s.members)
	switch s.typ {
	case CollBcast:
		n := int(s.count) * s.dtype.Size()
		if n == 0 {
			return
		}
		src := s.members[s.root].send.mem[:n]
		for i := range s.members {
			if i != int(s.root) {
				copy(s.members[i].send.mem, src)
			}
		}
	case CollAllgather:
		blk := int(s.count) * s.dtype.Size()
		if blk == 0 {
			return
		}
		all, sl := r.scratch(size * blk)
		for i := range s.members {
			copy(all[i*blk:], s.members[i].send.mem[:blk])
		}
		for i := range s.members {
			copy(s.members[i].recv.mem, all)
		}
		putSlab(sl)
	case CollAllreduce:
		s.allreduce(r)
	}
}

// allreduce replays Allreduce's message schedule on every rank's
// accumulator: combine(acc, in) with the same operands in the same order
// as each rank's recvBlock/combine sequence.
func (s *slot) allreduce(r *Rank) {
	size := len(s.members)
	count := int(s.count)
	n := count * s.dtype.Size()
	if n == 0 {
		return
	}
	accs, sl := r.scratch(2 * size * n)
	cur, next := accs[:size*n], accs[size*n:]
	acc := func(buf []byte, i int) []byte { return buf[i*n : (i+1)*n] }
	for i := range s.members {
		copy(acc(cur, i), s.members[i].send.mem[:n])
	}
	if size&(size-1) == 0 {
		// Recursive doubling: in each round rank i combines its
		// accumulator with partner i^mask's as both stood at the start of
		// the round. combine is a pure function of its operand bytes, so a
		// rank whose operands equal its predecessor's copies that result;
		// uniform blocks (every commutative reduction, and equal
		// contributions such as all-zero error flags) then cost one
		// combine per half-block per round instead of one per rank.
		for mask := 1; mask < size; mask <<= 1 {
			for i := 0; i < size; i++ {
				j := i ^ mask
				dst := acc(next, i)
				if i > 0 && bytes.Equal(acc(cur, i), acc(cur, i-1)) && bytes.Equal(acc(cur, j), acc(cur, (i-1)^mask)) {
					copy(dst, acc(next, i-1))
					continue
				}
				copy(dst, acc(cur, i))
				combine(s.op, s.dtype, dst, acc(cur, j), count)
			}
			cur, next = next, cur
		}
		for i := range s.members {
			copy(s.members[i].recv.mem, acc(cur, i))
		}
	} else {
		// Reduce to rank 0 (rank i absorbs i+mask while its low bits are
		// clear), then every rank receives rank 0's accumulator.
		for mask := 1; mask < size; mask <<= 1 {
			for i := 0; i+mask < size; i += 2 * mask {
				combine(s.op, s.dtype, acc(cur, i), acc(cur, i+mask), count)
			}
		}
		for i := range s.members {
			copy(s.members[i].recv.mem, acc(cur, 0))
		}
	}
	putSlab(sl)
}

// releaseSlots releases every open slot with verdict and returns how
// many it released. The supervisor releases to the message path
// (wakeFallback) when exactNow has proven the world frozen: a frozen
// world with ranks parked in a slot means some member can never arrive,
// and only the message algorithms define what happens next. World.kill
// releases with wakeKilled after closing done; arrivals check killed
// under the same lock, so no rank parks after that sweep.
func (w *World) releaseSlots(verdict uint8) int64 {
	rv := w.rdv
	if rv == nil {
		return 0
	}
	rv.mu.Lock()
	defer rv.mu.Unlock()
	n := int64(0)
	for _, s := range rv.open {
		if !s.fallback {
			s.release(verdict)
			n++
		}
	}
	return n
}

// reclaim recycles every slot left open by the finished run (members that
// never arrived, fallback slots not every member passed). Called after
// every rank goroutine has been joined.
func (rv *rendezvous) reclaim() {
	for _, s := range rv.open {
		rv.recycle(s)
	}
}
