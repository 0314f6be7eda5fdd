package mpi

import (
	"cmp"
	"fmt"
	"runtime"
	"strconv"
	"strings"
)

// CollType enumerates the collective operations the runtime implements.
type CollType int32

const (
	CollBarrier CollType = iota
	CollBcast
	CollReduce
	CollAllreduce
	CollScatter
	CollGather
	CollAllgather
	CollAlltoall
	CollAlltoallv
	CollReduceScatter
	CollScan
	CollScatterv
	CollGatherv
	NumCollTypes
)

var collNames = [NumCollTypes]string{
	"MPI_Barrier", "MPI_Bcast", "MPI_Reduce", "MPI_Allreduce", "MPI_Scatter",
	"MPI_Gather", "MPI_Allgather", "MPI_Alltoall", "MPI_Alltoallv",
	"MPI_Reduce_scatter", "MPI_Scan", "MPI_Scatterv", "MPI_Gatherv",
}

func (t CollType) String() string {
	if t >= 0 && t < NumCollTypes {
		return collNames[t]
	}
	return fmt.Sprintf("MPI_Collective(%d)", int32(t))
}

// Rooted reports whether the collective has a root process with a
// communication pattern distinct from the other ranks (the semantic
// distinction FastFIT's semantic-driven pruning exploits).
func (t CollType) Rooted() bool {
	switch t {
	case CollBcast, CollReduce, CollScatter, CollGather, CollScatterv, CollGatherv:
		return true
	}
	return false
}

// Args carries the mutable input parameters of one collective call on one
// rank. A fault injector flips bits in these fields before the collective
// algorithm consumes them.
type Args struct {
	Send *Buffer
	Recv *Buffer

	Count int32
	Dtype Datatype
	Op    Op
	Root  int32
	Comm  Comm

	// v-variant parameter vectors (element counts / displacements per rank).
	SendCounts []int32
	SendDispls []int32
	RecvCounts []int32
	RecvDispls []int32
}

// CollectiveCall describes one invocation of a collective on one rank, with
// the application context FastFIT profiles: call site, invocation index,
// call stack, phase and error-handling annotation. Site and StackHash are
// symbolic (see resolveStack), so they are identical across builds of the
// same source.
type CollectiveCall struct {
	Rank        int
	Type        CollType
	Site        uint64   // identifies the application call site
	SiteName    string   // the call site as "func file:line"
	Invocation  int      // 0-based count of this site's invocations on this rank
	Stack       []uint64 // application-side frames (innermost first): the site, then each caller's function
	StackHash   uint64
	Phase       Phase
	ErrHandling bool
	Args        *Args
}

// Hook observes (and in the injector's case mutates) collective calls.
// BeforeCollective runs after argument capture but before validation and
// execution; AfterCollective runs once the collective completes normally.
//
// The *CollectiveCall (including its Args and Stack) is only valid for the
// duration of the callback: with buffer pooling active (the default) the
// runtime reuses one record per rank across calls. A hook that needs the
// data later must copy the fields it cares about.
type Hook interface {
	BeforeCollective(call *CollectiveCall)
	AfterCollective(call *CollectiveCall)
}

// NopHook is a Hook with empty methods, convenient for embedding.
type NopHook struct{}

// BeforeCollective implements Hook.
func (NopHook) BeforeCollective(*CollectiveCall) {}

// AfterCollective implements Hook.
func (NopHook) AfterCollective(*CollectiveCall) {}

const pkgPrefix = "github.com/fastfit/fastfit/internal/mpi."

// collectiveWorkCharge is the work-budget cost of entering one collective.
// Charging collectives (not just application compute) lets the budget kill
// runaway loops whose cost is dominated by communication — e.g. a corrupted
// iteration count around a tight Allreduce loop.
const collectiveWorkCharge = 2000

// beginCollective captures the application context for a collective call,
// assigns the invocation index and runs the world hook.
func (r *Rank) beginCollective(t CollType, args *Args) *CollectiveCall {
	r.Tick(collectiveWorkCharge)
	st, inv := r.callSite()
	call := r.newCollCall()
	*call = CollectiveCall{
		Rank:        r.id,
		Type:        t,
		Site:        st.site,
		SiteName:    st.name,
		Invocation:  inv,
		Stack:       st.frames,
		StackHash:   st.hash,
		Phase:       r.phase,
		ErrHandling: r.errHandling,
		Args:        args,
	}
	if r.world.hook != nil {
		r.world.hook.BeforeCollective(call)
	}
	return call
}

// callSite resolves the application frame that called the MPI entry point
// above it (through the rank's stack memo) and assigns that site's next
// invocation index on this rank.
func (r *Rank) callSite() (stackEntry, int) {
	n := runtime.Callers(3, r.pcbuf[:])
	st := r.lookupStack(r.pcbuf[:n])
	inv := r.invents[st.site]
	r.invents[st.site] = inv + 1
	return st, inv
}

func (r *Rank) endCollective(call *CollectiveCall) {
	if r.world.rec != nil {
		r.world.rec.recordCollective(r, call)
	}
	if r.world.hook != nil {
		r.world.hook.AfterCollective(call)
	}
}

// resolveStack turns a raw runtime.Callers array into its symbolic
// application-side stack, dropping this package's frames. The innermost
// remaining frame is the call site: Site is FNV-1a over "function
// file:line" (full function name, file base name) and the name is that
// string with the package path cut. Callers count by function name
// alone, because the paper defines stack equivalence at function
// granularity ("the active functions are the same and called in the same
// order"); StackHash is FNV-1a over the site and those callers, innermost
// first. No part depends on code addresses, so every build of the same
// source agrees on all of them.
func resolveStack(pcs []uintptr) stackEntry {
	var e stackEntry
	frames := runtime.CallersFrames(pcs)
	for {
		fr, more := frames.Next()
		if fr.PC != 0 && !strings.HasPrefix(fr.Function, pkgPrefix) && fr.Function != "runtime.Callers" {
			if e.frames == nil {
				loc := fmt.Sprintf("%s:%d", fr.File[strings.LastIndexByte(fr.File, '/')+1:], fr.Line)
				e.site = fnvString(fr.Function + " " + loc)
				e.name = fr.Function[strings.LastIndexByte(fr.Function, '/')+1:] + " " + loc
				e.frames = append(e.frames, e.site)
			} else {
				e.frames = append(e.frames, fnvString(fr.Function))
			}
		}
		if !more {
			break
		}
	}
	e.hash = hashWords(e.frames)
	return e
}

// FNV-1a, computed inline so the per-call hash allocates nothing. The
// values are identical to hash/fnv over the bytes (little-endian for
// words).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func hashWords[W uintptr | uint64](ws []W) uint64 {
	h := uint64(fnvOffset64)
	for _, w := range ws {
		v := uint64(w)
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= fnvPrime64
		}
	}
	return h
}

// CompareSites orders call sites by function, then line, read from their
// "func file:line" names, and same-named sites by identity. It is the one
// build-stable site order: CALL_ID counts sites in it, and every
// deterministic site listing uses it.
func CompareSites(nameA string, siteA uint64, nameB string, siteB uint64) int {
	fa, la := splitSiteName(nameA)
	fb, lb := splitSiteName(nameB)
	return cmp.Or(strings.Compare(fa, fb), cmp.Compare(la, lb), cmp.Compare(siteA, siteB))
}

func splitSiteName(name string) (fn string, line int) {
	fn, _, _ = strings.Cut(name, " ")
	line, _ = strconv.Atoi(name[strings.LastIndexByte(name, ':')+1:])
	return fn, line
}
