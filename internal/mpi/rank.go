package mpi

import (
	"math/rand"
	"sync/atomic"
)

// Phase labels the coarse execution phase of the application, one of the
// application features FastFIT correlates with fault sensitivity.
type Phase int32

const (
	PhaseInit    Phase = 0 // startup, option parsing, communicator setup
	PhaseInput   Phase = 1 // problem generation / input reading
	PhaseCompute Phase = 2 // main iteration loop
	PhaseEnd     Phase = 3 // verification, output, teardown
)

var phaseNames = [...]string{"init", "input", "compute", "end"}

func (p Phase) String() string {
	if p >= 0 && int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// AnySource matches a message from any rank in Recv.
const AnySource = -1

// AnyTag matches a message with any user tag in Recv.
const AnyTag = -1

// maxUserTag bounds application-visible tags so internal collective traffic
// can use a disjoint namespace.
const maxUserTag = 1 << 20

// message is one point-to-point payload in flight. pooled, when non-nil,
// is the arena slab backing data; the consumer of an internal collective
// message recycles it, while user payloads escape into the application and
// stay GC-managed.
type message struct {
	comm   Comm
	src    int // rank within comm
	tag    int64
	data   []byte
	pooled *slab
	// tracePos is the sender's tape position of this message's send event
	// when a trace is being recorded (-1 when it is not): the causal edge
	// the fork cut computation needs (see trace.go).
	tracePos int32
}

// recycle returns the message's pooled payload to the arena. Safe to call
// on any message; only arena-backed ones carry a slab.
func (m *message) recycle() {
	if m.pooled != nil {
		putSlab(m.pooled)
		m.pooled = nil
		m.data = nil
	}
}

// Rank is the per-process handle an application's rank function receives.
// It is confined to its own goroutine; the runtime performs all cross-rank
// communication through channels.
type Rank struct {
	world *World
	id    int // world rank

	inbox   chan message
	pending []message

	// rnd backs Rand, the deterministic per-rank random source seeded from
	// the run options. It draws from rngSrc, whose cached seeding makes
	// per-run reseeding cheap (rng.go), and is seeded lazily on first use:
	// apps that only draw through SeededRand never pay the default
	// generator's ~5 KB state copy at bind time.
	rnd     *rand.Rand
	rndSeed int64
	rndLive bool // rnd is seeded for the current run
	rngSrc  fibSource

	phase       Phase
	errHandling bool

	collSeq map[Comm]int64 // per-communicator collective sequence numbers
	invents map[uint64]int
	libSeq  map[string]int // resilient-library invocation counters (see LibSeq)

	work   int64 // accumulated work units (see Tick)
	budget int64

	reported []float64

	// Arena state (see pool.go). owned tracks pooled Buffers handed out
	// this run; bufFree recycles Buffer headers across runs; frame/p2p are
	// the reusable hook records; stacks memoises resolved call stacks.
	owned   []*Buffer
	bufFree []*Buffer
	frame   collFrame
	p2p     p2pFrame
	stacks  map[uint64]stackEntry

	// pcbuf is the persistent runtime.Callers scratch: a stack-local
	// [64]uintptr would escape through lookupStack and cost one heap
	// allocation per collective call (the alloc-budget tests pin this).
	pcbuf [64]uintptr

	// replay, when non-nil, serves this rank's communication from a golden
	// trace until the fork cut is reached (see fork.go).
	replay *replayState

	// appRand/appSrc back SeededRand, the cheap per-run application RNG.
	appRand *rand.Rand
	appSrc  fibSource

	// blockKind/blockPeer publish where this rank is parked — blockRecv
	// (waiting on its own inbox), blockSend with the target's world rank
	// (waiting for capacity in a full inbox) or blockSlot (waiting in a
	// collective rendezvous slot) — for the supervisor's exact-quiescence
	// check (World.exactQuiesced). Set before the matching blocked.Add(1),
	// so whenever a rank is counted blocked its park site is already
	// published. Cleared after every blocked.Add(-1), except that a slot
	// waker clears blockSlot first (Rank.unpark); in between the rank
	// counts as blocked but unparked, which only makes the check refuse.
	// wake carries a rendezvous verdict to this rank while it is parked in
	// a slot: wakeDone, wakeFallback or wakeKilled (see rendezvous.go).
	blockKind atomic.Int32
	blockPeer atomic.Int32
	wake      chan uint8
}

// blockKind values. Park sites that never annotate themselves leave
// blockNone, which makes exactQuiesced conservatively refuse to declare
// the run frozen.
const (
	blockNone int32 = iota
	blockRecv
	blockSend
	blockSlot // parked in a collective rendezvous slot
)

// Tick charges units of computational work to the rank's budget. Applications
// call it in their outer loops with a cost estimate before performing the
// work. When a corrupted parameter inflates the workload past the budget the
// rank dies with Killed — the simulated equivalent of the batch scheduler
// killing a job that stopped making progress, which the classifier reports
// as INF_LOOP. Tick also observes world cancellation, so compute-bound
// ranks terminate promptly when a peer has already crashed.
func (r *Rank) Tick(units int) {
	if r.world.killed() {
		panic(Killed{Reason: r.world.killWhy.Load().(string)})
	}
	r.work += int64(units)
	if r.budget > 0 && r.work > r.budget {
		panic(Killed{Reason: "work budget exhausted: runaway execution killed"})
	}
}

// SeededRand returns a deterministic generator seeded with seed, with the
// exact stream of rand.New(rand.NewSource(seed)). Applications that derive
// a per-rank problem stream from their config seed should use it instead
// of rand.NewSource: seeding the stdlib source costs ~12 µs, which a
// 32-rank campaign trial pays 32 times per run, while SeededRand restores
// a cached state (see rng.go). The returned generator is only valid until
// the next SeededRand call on this rank; call it once per run.
func (r *Rank) SeededRand(seed int64) *rand.Rand {
	if r.appRand == nil {
		r.appRand = rand.New(&r.appSrc)
	}
	r.appRand.Seed(seed)
	return r.appRand
}

// Rand returns the rank's default deterministic random source, seeded from
// the run options so repeated runs are bit-for-bit reproducible (the exact
// stream of rand.New(rand.NewSource(s)) for the rank's derived seed, see
// rankSeed). Seeding happens on the first call of each run; apps that never
// draw from it pay nothing.
func (r *Rank) Rand() *rand.Rand {
	if r.rnd == nil {
		r.rnd = rand.New(&r.rngSrc)
	}
	if !r.rndLive {
		r.rnd.Seed(r.rndSeed)
		r.rndLive = true
	}
	return r.rnd
}

// ID returns the world rank of this process.
func (r *Rank) ID() int { return r.id }

// NumRanks returns the size of the world communicator.
func (r *Rank) NumRanks() int { return r.world.size }

// SetPhase records the application's current execution phase.
func (r *Rank) SetPhase(p Phase) { r.phase = p }

// Phase returns the current execution phase.
func (r *Rank) Phase() Phase { return r.phase }

// SetErrHandling marks subsequent collectives as belonging to the
// application's error-handling code (e.g. a consistency-check Allreduce).
func (r *Rank) SetErrHandling(on bool) { r.errHandling = on }

// ErrCheck runs fn with the error-handling annotation set, restoring the
// previous value afterwards.
func (r *Rank) ErrCheck(fn func()) {
	prev := r.errHandling
	r.errHandling = true
	defer func() { r.errHandling = prev }()
	fn()
}

// ReportResult appends values to the rank's reported output; the harness
// compares reported outputs against a fault-free golden run to detect
// silent data corruption (the WRONG_ANS response class).
func (r *Rank) ReportResult(vals ...float64) {
	r.reported = append(r.reported, vals...)
}

// Abort terminates the run the way an application's own error handling
// does: the rank panics with AppError, which the job launcher propagates as
// an application-detected failure (APP_DETECTED).
func (r *Rank) Abort(msg string) {
	panic(AppError{Rank: r.id, Message: msg})
}

// Assert aborts with msg when cond is false; a convenience for application
// sanity checks.
func (r *Rank) Assert(cond bool, msg string) {
	if !cond {
		r.Abort(msg)
	}
}

// nextSeq allocates the next collective sequence number on comm; it keys
// the internal tag namespace so back-to-back collectives cannot steal each
// other's messages.
func (r *Rank) nextSeq(c Comm) int64 {
	if r.collSeq == nil {
		r.collSeq = make(map[Comm]int64)
	}
	s := r.collSeq[c]
	r.collSeq[c] = s + 1
	return s
}

// Send delivers a user point-to-point message to dst (rank within comm).
func (r *Rank) Send(comm Comm, dst, tag int, data []byte) {
	if r.replayActive() {
		r.replaySend()
		return
	}
	args := r.beginP2P(P2PSend, P2PArgs{Peer: dst, Tag: tag, Data: data, Comm: comm})
	if args.Tag < 0 || args.Tag >= maxUserTag {
		abortf(r.id, "MPI_Send", ErrTag, "tag %d outside [0,%d)", args.Tag, maxUserTag)
	}
	ci := r.commDeref(args.Comm)
	if args.Peer < 0 || args.Peer >= len(ci.members) {
		abortf(r.id, "MPI_Send", ErrRank, "destination %d outside communicator of size %d", args.Peer, len(ci.members))
	}
	r.sendRaw(ci, args.Comm, args.Peer, int64(args.Tag), args.Data)
}

// SendFloat64s is a convenience wrapper marshalling float64 values.
func (r *Rank) SendFloat64s(comm Comm, dst, tag int, vals []float64) {
	b := r.FromFloat64s(vals)
	r.Send(comm, dst, tag, b.Bytes())
	b.Release()
}

// Recv blocks until a user message from src with the given tag arrives.
// src may be AnySource and tag may be AnyTag.
func (r *Rank) Recv(comm Comm, src, tag int) []byte {
	if r.replayActive() {
		return r.replayRecv()
	}
	args := r.beginP2P(P2PRecv, P2PArgs{Peer: src, Tag: tag, Comm: comm})
	if args.Tag != AnyTag && (args.Tag < 0 || args.Tag >= maxUserTag) {
		abortf(r.id, "MPI_Recv", ErrTag, "tag %d outside [0,%d)", args.Tag, maxUserTag)
	}
	ci := r.commDeref(args.Comm)
	if args.Peer != AnySource && (args.Peer < 0 || args.Peer >= len(ci.members)) {
		abortf(r.id, "MPI_Recv", ErrRank, "source %d outside communicator of size %d", args.Peer, len(ci.members))
	}
	if r.world.rec != nil && (args.Peer == AnySource || args.Tag == AnyTag) {
		// A wildcard match depends on arrival interleaving, which the tape's
		// per-rank cut cannot reconstruct; such apps use full replay.
		r.world.rec.poison("wildcard receive (AnySource/AnyTag)")
	}
	var t int64 = int64(args.Tag)
	if args.Tag == AnyTag {
		t = anyTagSentinel
	}
	m := r.recvMatch(args.Comm, args.Peer, t)
	if r.world.rec != nil {
		r.world.rec.recordRecv(r.id, args.Comm, m.src, ci.members[m.src], m.tag, m.tracePos, m.data)
	}
	return m.data
}

// RecvFloat64s receives and unmarshals float64 values.
func (r *Rank) RecvFloat64s(comm Comm, src, tag int) []float64 {
	if r.replayActive() {
		// The raw bytes never leave this frame, so the replay can decode
		// straight off the immutable tape instead of paying replayRecv's
		// private copy (the live path's copy is made at send time; see
		// sendRaw).
		ev := r.replay.replayNext(evRecv, "Recv")
		return float64sFrom(r.replay.tape.span(ev.off, ev.n))
	}
	return float64sFrom(r.Recv(comm, src, tag))
}

// float64sFrom decodes a payload exactly as Buffer.Float64s does.
func float64sFrom(raw []byte) []float64 {
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = loadFloat64(raw[i*8:])
	}
	return out
}

// int64sFrom decodes a payload exactly as Buffer.Int64s does.
func int64sFrom(raw []byte) []int64 {
	out := make([]int64, len(raw)/8)
	for i := range out {
		out[i] = loadInt64(raw[i*8:])
	}
	return out
}

// Sendrecv performs the combined exchange of MPI_Sendrecv: data goes to
// dst under sendTag while a message from src under recvTag is received,
// without the manual ordering burden (the send is buffered eagerly, so the
// pair cannot deadlock against a symmetric partner).
func (r *Rank) Sendrecv(comm Comm, dst, sendTag int, data []byte, src, recvTag int) []byte {
	r.Send(comm, dst, sendTag, data)
	return r.Recv(comm, src, recvTag)
}

const anyTagSentinel int64 = -2

// sendRaw copies data and enqueues it at the destination rank's inbox. dst
// is a rank within ci. Blocking on a full inbox participates in quiescence
// accounting so a jammed schedule is detected as deadlock.
//
// Internal collective payloads (tag >= maxUserTag) are copied into arena
// slabs and recycled by the receiving collective; user payloads use plain
// allocations because Recv hands them to the application.
func (r *Rank) sendRaw(ci *commInfo, comm Comm, dst int, tag int64, data []byte) {
	w := r.world
	wdst := ci.members[dst]
	if w.faulty {
		// Fault domain active: consult it before any copy is made. A
		// message to a dead node, or one whose route hits a failed link or
		// an armed drop, is silently discarded — exactly what a lossy
		// fabric does. On the default reliable network this whole block is
		// one predicted-false branch, preserving the zero-alloc hot path.
		if w.dead[wdst].Load() {
			return
		}
		if w.net != nil && !w.net.deliver(r.id, wdst) {
			return
		}
	}
	var cp []byte
	var pooled *slab
	if n := len(data); n > 0 && tag >= maxUserTag && n <= maxSlabBytes && w.pooling {
		pooled = getSlab(n)
		cp = pooled.b[:n]
	} else {
		cp = make([]byte, n)
	}
	copy(cp, data)
	me := ci.rankOf[r.id]
	tracePos := int32(-1)
	if w.rec != nil && tag >= 0 && tag < maxUserTag {
		tracePos = w.rec.recordSend(r.id, comm, dst, tag)
	}
	msg := message{comm: comm, src: me, tag: tag, data: cp, pooled: pooled, tracePos: tracePos}
	target := w.ranks[wdst]
	select {
	case target.inbox <- msg:
		w.delivered.Add(1)
		w.progress.Add(1)
		return
	default:
	}
	r.blockPeer.Store(int32(wdst))
	r.blockKind.Store(blockSend)
	w.blocked.Add(1)
	w.notifyQuiesce()
	for {
		var ep chan struct{}
		if w.faulty {
			// Epoch channel first, then the death mask: a death published
			// in between closes the channel we hold, so the select below
			// cannot sleep through it.
			ep = *w.epoch.Load()
			if w.dead[wdst].Load() {
				w.blocked.Add(-1)
				r.blockKind.Store(blockNone)
				msg.recycle()
				return
			}
		}
		select {
		case target.inbox <- msg:
			w.blocked.Add(-1)
			r.blockKind.Store(blockNone)
			w.delivered.Add(1)
			w.progress.Add(1)
			return
		case <-ep:
			// Membership changed; re-check whether dst is still alive.
		case <-w.done:
			w.blocked.Add(-1)
			r.blockKind.Store(blockNone)
			panic(Killed{Reason: w.killWhy.Load().(string)})
		}
	}
}

// recvMatch blocks until a message matching (comm, src, tag) is available.
// src == AnySource matches any source; tag == anyTagSentinel matches any
// user tag.
func (r *Rank) recvMatch(comm Comm, src int, tag int64) message {
	match := func(m message) bool {
		if m.comm != comm {
			return false
		}
		if src != AnySource && m.src != src {
			return false
		}
		if tag == anyTagSentinel {
			return m.tag >= 0 && m.tag < maxUserTag
		}
		return m.tag == tag
	}
	for i, m := range r.pending {
		if match(m) {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return m
		}
	}
	r.blockKind.Store(blockRecv)
	for {
		r.world.blocked.Add(1)
		r.world.notifyQuiesce()
		select {
		case m := <-r.inbox:
			r.world.blocked.Add(-1)
			r.world.absorbed.Add(1)
			// Draining the inbox is progress even when the message does not
			// match: it frees sender inbox capacity.
			r.world.progress.Add(1)
			if match(m) {
				r.blockKind.Store(blockNone)
				return m
			}
			r.pending = append(r.pending, m)
		case <-r.world.done:
			r.world.blocked.Add(-1)
			r.blockKind.Store(blockNone)
			panic(Killed{Reason: r.world.killWhy.Load().(string)})
		}
	}
}
