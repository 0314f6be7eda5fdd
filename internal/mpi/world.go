package mpi

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// CommWorld is the handle of the world communicator, present in every run.
const CommWorld Comm = commKind | 0

// RunOptions configures a single execution of an application on the
// simulated runtime.
type RunOptions struct {
	// NumRanks is the number of MPI processes (goroutines) to launch.
	NumRanks int
	// Timeout bounds the wall-clock duration of the run; past it the run is
	// cancelled and blocked ranks die with Killed. Zero means 2 seconds.
	Timeout time.Duration
	// NoDeadlockCheck disables the quiescence detector that cancels runs
	// whose surviving ranks are all blocked with no messages in flight; such
	// a run then ends at its Timeout. The supervisor still releases ranks
	// parked in collective rendezvous slots when the world freezes (see
	// rendezvous.go), so the verdict matches the message algorithms.
	NoDeadlockCheck bool
	// Seed feeds the per-rank deterministic random generators.
	Seed int64
	// WorkBudget bounds the work units each rank may Tick before being
	// killed (simulating a scheduler killing a runaway job). Zero means
	// 10 million units; negative disables the budget.
	WorkBudget int64
	// Hook observes (and may mutate) every collective call. May be nil.
	Hook Hook
	// MailboxCap is the per-rank inbox capacity; zero means 4096 messages.
	MailboxCap int
	// Context, when non-nil, cancels the run early: once it is done the
	// world is killed and blocked ranks die with Killed, exactly as on a
	// wall-clock timeout. Campaign supervisors use this to stop in-flight
	// injected runs promptly on Ctrl-C.
	Context context.Context
	// DisablePooling selects the reference runtime: it turns off the
	// buffer arena (see pool.go) that recycles rank state, message
	// payloads, collective scratch and simulated-memory buffers across
	// runs, and the collective rendezvous (see rendezvous.go), so every
	// collective runs its message algorithm. Both are on by default; the
	// differential test harness uses this switch to prove the fast paths
	// outcome-identical to the reference.
	DisablePooling bool
	// Network, when non-nil, routes every point-to-point message (and the
	// internal traffic of every collective) through a simulated
	// interconnect with faultable links (see network.go). Nil preserves
	// the paper's perfectly reliable flat network at zero cost.
	Network *Network
	// CrashedRanks lists world ranks whose node failed before launch:
	// their goroutines never start, their results carry NodeCrashed, and
	// the surviving ranks see them dead from the first instruction
	// (AliveAtStart is false). Out-of-range entries are ignored.
	CrashedRanks []int
	// Record captures the run's communication as a Trace (see trace.go)
	// returned in RunResult.Trace, from which injection-prefix Forks are
	// built. Meaningful only on golden (fault-free, reliable-network) runs:
	// a run with a Network or CrashedRanks yields an unforkable trace.
	Record bool
	// Fork, when non-nil, serves each rank's pre-injection communication
	// prefix from a recorded golden trace instead of executing it (see
	// fork.go). Mutually exclusive with Record.
	Fork *Fork

	// noRendezvous keeps the arena but runs every collective through its
	// message algorithm, so in-package tests can compare the two paths
	// with everything else equal.
	noRendezvous bool
}

// RankResult reports how one rank finished.
type RankResult struct {
	Rank   int
	Err    error     // nil on clean exit; MPIError/SegFault/AppError/Killed otherwise
	Values []float64 // values the rank reported via ReportResult
}

// RunResult aggregates one application execution.
type RunResult struct {
	Ranks     []RankResult
	Deadlock  bool // the quiescence detector cancelled the run
	TimedOut  bool // the wall-clock timeout cancelled the run
	Cancelled bool // RunOptions.Context was done before completion
	Elapsed   time.Duration
	Trace     *Trace // recorded communication, when RunOptions.Record was set

	slotReleases int64 // rendezvous slots the supervisor released to fallback
}

// FirstError returns the highest-priority error across ranks, or nil. The
// priority order matches how a batch system reports a job that failed for
// several reasons at once: a crash beats an MPI abort beats an application
// abort beats a kill. A node crash ranks below everything else: when the
// only errors are NodeCrashed, the run's fate is decided by what the
// surviving ranks did, not by the crash itself.
func (r RunResult) FirstError() error {
	var app, mpiErr, seg, killed, crashed error
	for _, rr := range r.Ranks {
		switch e := rr.Err.(type) {
		case nil:
		case SegFault:
			if seg == nil {
				seg = e
			}
		case MPIError:
			if mpiErr == nil {
				mpiErr = e
			}
		case AppError:
			if app == nil {
				app = e
			}
		case NodeCrashed:
			if crashed == nil {
				crashed = e
			}
		default:
			if killed == nil {
				killed = e
			}
		}
	}
	for _, e := range []error{seg, mpiErr, app, killed, crashed} {
		if e != nil {
			return e
		}
	}
	return nil
}

// World is one simulated machine: ranks, communicators and the deadlock
// monitor. A World lives for exactly one Run call.
type World struct {
	size    int
	ranks   []*Rank
	comms   []*commInfo
	hook    Hook
	pooling bool // buffer arena active for this run (see pool.go)

	// rdv is the collective rendezvous slot table (see rendezvous.go), nil
	// when collectives run their message algorithms only. slotReleases
	// counts the slots the supervisor released on a frozen world.
	rdv          *rendezvous
	slotReleases int64

	commMu sync.Mutex // guards comms growth (Comm split/dup)

	// rec, when non-nil, records the run's communication (see trace.go).
	rec *traceRecorder

	done     chan struct{} // closed to cancel the run
	doneOnce sync.Once
	killWhy  atomic.Value // string

	// quiescence accounting
	blocked  atomic.Int64 // ranks currently blocked in send/recv
	finished atomic.Int64 // ranks that returned
	progress atomic.Int64 // bumped on every successful message match
	failed   atomic.Int64 // ranks that ended in a panic or error

	// Message conservation counters for the exact-quiescence proof:
	// delivered counts messages enqueued into an inbox (sender side),
	// absorbed counts messages taken out (receiver side). A receiver that
	// has pulled a message but not yet advanced its own state is invisible
	// to park-site inspection — conservation (delivered - absorbed ==
	// messages still queued) is what rules that window out.
	delivered atomic.Int64
	absorbed  atomic.Int64

	// quiesce wakes the supervisor when a park or exit completes the
	// fin+blk == size sum, so starved runs are reaped at event latency
	// instead of on the next poll tick. Buffered; notifications are
	// best-effort hints verified by exactNow.
	quiesce chan struct{}

	// Network fault domain (nil/false on the default reliable network, so
	// the no-fault hot path pays a single branch in sendRaw).
	faulty      bool
	net         *Network
	dead        []atomic.Bool                 // world-rank death mask
	deadAtStart []bool                        // immutable after launch
	epoch       atomic.Pointer[chan struct{}] // closed+swapped on membership change

	// Heartbeat failure-detection monitor (see detector.go).
	hbMu sync.Mutex
	hb   *heartbeat
}

// commInfo is the runtime's communicator descriptor. The comms table is
// indexed by the raw Comm handle with no bounds validation, mirroring how a
// C MPI library dereferences MPI_Comm pointers; a corrupted handle therefore
// crashes (Go's index panic -> simulated SIGSEGV) rather than erroring.
type commInfo struct {
	handle  Comm
	members []int // world ranks, index = rank within this communicator
	rankOf  map[int]int
}

// rankFailed records that a rank ended in a panic or error. The failure
// does NOT abort its peers: every rank must reach its own deterministic
// fate (crash, MPI error, app abort, completion) so that a run's
// classification depends only on the injected fault, never on which
// failing rank the scheduler happened to run first. Peers starved by a
// dead rank are reaped by the quiescence supervisor.
func (w *World) rankFailed() {
	w.failed.Add(1)
}

func (w *World) kill(why string) {
	w.doneOnce.Do(func() {
		w.killWhy.Store(why)
		close(w.done)
		w.releaseSlots(wakeKilled)
	})
}

func (w *World) killed() bool {
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

// markDead publishes world rank's death to the fault domain and wakes every
// blocked peer so RecvOrFail and sendRaw re-sample the death mask. Called on
// the dying rank's own goroutine, after all of its sends — that ordering is
// what makes consumption-point failure detection deterministic.
func (w *World) markDead(rank int) {
	if !w.faulty || rank < 0 || rank >= w.size {
		return
	}
	w.dead[rank].Store(true)
	ch := make(chan struct{})
	old := w.epoch.Swap(&ch)
	if old != nil {
		close(*old)
	}
}

func (w *World) rankDead(rank int) bool {
	return w.faulty && w.dead[rank].Load()
}

// Run executes fn on opts.NumRanks simulated MPI processes and collects the
// per-rank outcomes. fn must be safe for concurrent execution; each rank
// receives its own *Rank handle.
func Run(opts RunOptions, fn func(r *Rank) error) RunResult {
	n := opts.NumRanks
	if n <= 0 {
		n = 1
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	mailbox := opts.MailboxCap
	if mailbox <= 0 {
		mailbox = 4096
	}

	pooling := !opts.DisablePooling
	budget := opts.WorkBudget
	if budget == 0 {
		budget = 10_000_000
	}
	if budget < 0 {
		budget = 0 // disabled
	}

	// With pooling on, the per-rank skeleton (channels, rand sources,
	// maps, caches) is recycled from earlier runs of the same shape and
	// returned to the arena once every rank goroutine has been joined.
	var shell *runShell
	if pooling {
		shell = getShell(n, mailbox)
	}
	if shell == nil {
		shell = newShell(n, mailbox)
	}
	w := &World{
		size:    n,
		hook:    opts.Hook,
		done:    make(chan struct{}),
		quiesce: make(chan struct{}, 1),
		pooling: pooling,
	}
	if pooling && !opts.noRendezvous && opts.Network == nil && len(opts.CrashedRanks) == 0 {
		// The network fault domain acts per message, so faulty worlds keep
		// every collective on its message algorithm.
		w.rdv = &shell.rdv
	}
	w.comms = []*commInfo{shell.world0}
	w.ranks = shell.ranks
	for i, rk := range w.ranks {
		rk.bind(w, rankSeed(opts.Seed, i), budget)
	}
	if opts.Record {
		w.rec = newTraceRecorder(n)
		if opts.Network != nil || len(opts.CrashedRanks) > 0 {
			w.rec.poison("recording run had an active network fault domain")
		}
	}
	if opts.Fork != nil {
		w.bindFork(opts.Fork)
	}

	if opts.Network != nil || len(opts.CrashedRanks) > 0 {
		w.faulty = true
		w.net = opts.Network
		w.dead = make([]atomic.Bool, n)
		w.deadAtStart = make([]bool, n)
		ch := make(chan struct{})
		w.epoch.Store(&ch)
		for _, cr := range opts.CrashedRanks {
			if cr >= 0 && cr < n {
				w.dead[cr].Store(true)
				w.deadAtStart[cr] = true
			}
		}
	}

	results := make([]RankResult, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		if w.faulty && w.deadAtStart[i] {
			// The node failed before launch: its goroutine never starts.
			// It still counts as finished+failed so quiescence arithmetic
			// (fin+blk == size) and starved-peer reaping stay exact.
			results[i] = RankResult{Rank: i, Err: NodeCrashed{Rank: i, Reason: "node failed before launch"}}
			w.finished.Add(1)
			w.rankFailed()
			continue
		}
		wg.Add(1)
		go func(rk *Rank) {
			defer wg.Done()
			defer func() {
				w.finished.Add(1)
				w.notifyQuiesce() // this exit may leave only parked ranks
			}()
			defer func() {
				if p := recover(); p != nil {
					err := panicToError(rk.id, p)
					if _, crashed := err.(NodeCrashed); crashed {
						w.markDead(rk.id)
					}
					results[rk.id] = RankResult{Rank: rk.id, Err: err, Values: rk.reported}
					w.rankFailed()
					return
				}
			}()
			err := fn(rk)
			results[rk.id] = RankResult{Rank: rk.id, Err: err, Values: rk.reported}
			if err != nil {
				w.rankFailed()
			}
		}(w.ranks[i])
	}

	allDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(allDone)
	}()

	var ctxDone <-chan struct{}
	if opts.Context != nil {
		ctxDone = opts.Context.Done()
	}

	deadlock, timedOut, cancelled := w.supervise(allDone, ctxDone, timeout, !opts.NoDeadlockCheck)

	// All rank goroutines are joined on every path above; the heartbeat
	// monitor (if a resilient collective started one) is stopped and joined
	// before any rank state is recycled.
	w.stopHeartbeat()

	if pooling {
		// Every exit path above has joined all rank goroutines, so the
		// shell (and any pooled memory still referenced by abandoned
		// in-flight messages) can be reclaimed safely.
		shell.reclaim()
		putShell(shell)
	}

	res := RunResult{
		Ranks:     results,
		Deadlock:  deadlock,
		TimedOut:  timedOut,
		Cancelled: cancelled,
		Elapsed:   time.Since(start),

		slotReleases: w.slotReleases,
	}
	if w.rec != nil {
		if deadlock || timedOut || cancelled {
			w.rec.poison("recording run did not complete cleanly")
		}
		res.Trace = w.rec.finish()
	}
	return res
}

// supervise watches for completion, deadlock, timeout or external
// cancellation. Deadlock is declared only when exactNow proves the run
// frozen: every unfinished rank parked at an annotated site that cannot
// fire, with message conservation holding. No wall-clock window decides
// it, so a rank the scheduler leaves unrun for a while is never mistaken
// for a stalled one.
//
// A frozen world is first released, then reaped: if ranks are parked in
// rendezvous slots, every open slot falls back to its message algorithm
// and the run goes on; only a world that freezes with no slot to release
// is reaped. The release step runs even when reap is false
// (NoDeadlockCheck), because without it a slot whose member never arrives
// would hold ranks the message algorithm lets through.
func (w *World) supervise(allDone chan struct{}, ctxDone <-chan struct{}, timeout time.Duration, reap bool) (deadlock, timedOut, cancelled bool) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	const tickPeriod = 250 * time.Microsecond
	tick := time.NewTicker(tickPeriod)
	defer tick.Stop()

	// frozen releases or tears down a frozen run and reports whether the
	// run was reaped. Campaigns spend a large share of their wall clock on
	// faulty runs whose survivors starve; this is the moment that cost is
	// paid, so both the hint and the tick funnel through here.
	frozen := func() bool {
		if n := w.releaseSlots(wakeFallback); n > 0 || !reap {
			w.slotReleases += n
			return false
		}
		if w.failed.Load() > 0 {
			// Not a deadlock of the application's own making: the surviving
			// ranks are starved by a failed peer. Reap them like mpirun
			// tearing down a job whose rank died — the failure itself is
			// already in the results and dominates classification.
			w.kill("job abort: peers starved by a failed rank")
		} else {
			w.kill("deadlock: all surviving ranks blocked with no progress")
			deadlock = true
		}
		<-allDone
		return true
	}

	// A context already done when the run starts cancels it outright;
	// otherwise its ranks could freeze first, and the select below would
	// pick between the cancellation and the deadlock verdict at random.
	select {
	case <-ctxDone:
		w.kill("run cancelled")
		<-allDone
		return false, false, true
	default:
	}
	for {
		select {
		case <-allDone:
			return false, false, false
		case <-deadline.C:
			w.kill("wall-clock timeout")
			<-allDone
			return false, true, false
		case <-ctxDone:
			w.kill("run cancelled")
			<-allDone
			return false, false, true
		case <-w.quiesce:
			// A park or exit completed the fin+blk == size sum. Verify the
			// frozen state exactly; a rejected hint costs one scan and the
			// poll tick below remains as the safety net.
			if w.exactNow() && frozen() {
				return deadlock, false, false
			}
		case <-tick.C:
			// The safety net for a hint lost to the coalescing channel.
			if w.exactNow() && frozen() {
				return deadlock, false, false
			}
		}
	}
}

// exactNow proves the run is frozen, at this instant, from published park
// sites and message conservation. It samples every quiescence counter, scans
// the rank states, then re-checks that no counter moved and scans again: any
// event that could wake a parked rank bumps a counter — a delivery moves
// delivered, a drain moves absorbed, a park exit moves blocked, a rank death
// passes through a neither-blocked-nor-finished unwind that breaks the
// fin+blk == size sum and then moves finished — so two positive scans
// bracketed by identical counters cannot straddle a wake in flight.
func (w *World) exactNow() bool {
	fin := w.finished.Load()
	blk := w.blocked.Load()
	prog := w.progress.Load()
	del := w.delivered.Load()
	abs := w.absorbed.Load()
	if fin >= int64(w.size) || fin+blk != int64(w.size) || !w.exactQuiesced(fin) {
		return false
	}
	runtime.Gosched()
	return w.finished.Load() == fin && w.blocked.Load() == blk &&
		w.progress.Load() == prog && w.delivered.Load() == del &&
		w.absorbed.Load() == abs && w.exactQuiesced(fin)
}

// exactQuiesced is one scan of exactNow's frozen-state predicate: every
// unfinished rank is parked in a communication select that provably cannot
// fire — a receiver whose inbox is empty, or a sender whose target inbox is
// full — and message conservation holds: everything delivered was either
// absorbed by a receiver or still sits in an inbox. The conservation term
// closes the one window park-site inspection cannot see: a receiver that
// has pulled its message off the channel but not yet advanced its own
// counters looks parked with an empty inbox, yet the pulled message is
// missing from every queue. Ranks parked at sites that do not publish a
// blockKind (none today; the check is written defensively) make the count
// come up short, so such a run is never declared deadlocked and ends at
// its wall-clock timeout instead.
func (w *World) exactQuiesced(fin int64) bool {
	parked, queued := int64(0), int64(0)
	for _, rk := range w.ranks {
		queued += int64(len(rk.inbox))
		switch rk.blockKind.Load() {
		case blockSlot:
			// Only a completing arrival or a release wakes a slot-parked
			// rank, and its waker clears the mark before waking it.
			parked++
		case blockRecv:
			if len(rk.inbox) != 0 {
				return false
			}
			parked++
		case blockSend:
			p := int(rk.blockPeer.Load())
			if p < 0 || p >= w.size {
				return false
			}
			t := w.ranks[p]
			if len(t.inbox) != cap(t.inbox) {
				return false
			}
			parked++
		}
	}
	if w.delivered.Load()-w.absorbed.Load() != queued {
		return false
	}
	return parked > 0 && parked == int64(w.size)-fin
}

// notifyQuiesce pokes the supervisor when the caller's park or exit may
// have been the last: with every rank now blocked or finished, the run is
// frozen unless messages are still in flight, which exactNow rules on. The
// send is a lossy hint — the buffered channel coalesces bursts, and any
// hint racing a counter move is simply rejected by the verification.
func (w *World) notifyQuiesce() {
	if w.finished.Load()+w.blocked.Load() == int64(w.size) {
		select {
		case w.quiesce <- struct{}{}:
		default:
		}
	}
}

func panicToError(rank int, p any) error {
	switch e := p.(type) {
	case MPIError:
		return e
	case SegFault:
		return e
	case AppError:
		return e
	case Killed:
		return e
	case NodeCrashed:
		return e
	case error:
		// A genuine Go runtime panic (index out of range, nil deref, ...)
		// is the simulator-level equivalent of SIGSEGV in the MPI library.
		return SegFault{Op: fmt.Sprintf("runtime: %v", e)}
	default:
		return SegFault{Op: fmt.Sprintf("runtime: %v", p)}
	}
}
