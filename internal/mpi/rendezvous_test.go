package mpi

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// The rendezvous differential suite runs each case twice with everything
// equal except the rendezvous toggle — arena on in both legs — and
// requires the same per-rank output bytes, per-rank errors and run
// verdicts. The message algorithms are the reference semantics; the
// rendezvous must reproduce them bit for bit, including on the inputs
// where a reduction's result depends on operand order.

// rdvCase is one differential scenario. body runs on every rank and
// appends whatever the rank observed to out[rank]; hook, when set, builds
// a fresh per-run hook.
type rdvCase struct {
	name string
	hook func() Hook
	body func(r *Rank, out [][]byte)
}

// rdvOutcome is the comparable surface of one run.
type rdvOutcome struct {
	out       [][]byte
	errs      []string
	deadlock  bool
	timedOut  bool
	cancelled bool
	releases  int64
}

func runRdvCase(t *testing.T, n int, c rdvCase, rendezvous bool) rdvOutcome {
	t.Helper()
	out := make([][]byte, n)
	opts := RunOptions{NumRanks: n, Seed: 7, Timeout: 30 * time.Second, noRendezvous: !rendezvous}
	if c.hook != nil {
		opts.Hook = c.hook()
	}
	res := Run(opts, func(r *Rank) error {
		c.body(r, out)
		return nil
	})
	o := rdvOutcome{out: out, deadlock: res.Deadlock, timedOut: res.TimedOut, cancelled: res.Cancelled, releases: res.slotReleases}
	for _, rr := range res.Ranks {
		o.errs = append(o.errs, fmt.Sprintf("%T %v %v", rr.Err, rr.Err, rr.Values))
	}
	return o
}

// record appends a copy of b's bytes to the rank's observations.
func record(out [][]byte, r *Rank, b *Buffer) {
	out[r.ID()] = append(out[r.ID()], b.Bytes()...)
}

// specialFloat returns the rank's element i from a pool of values on which
// Sum, Max and Min disagree bitwise across operand orders: NaNs with
// distinct payloads and signs, both zeros, both infinities, and ordinary
// numbers whose sums round differently by association.
func specialFloat(rank, i int) float64 {
	pool := []float64{
		math.Float64frombits(0x7FF8000000000000 | uint64(rank+1)),
		math.Float64frombits(0xFFF8000000000000 | uint64(rank+7)<<8),
		math.Copysign(0, -1),
		0,
		math.Inf(1),
		math.Inf(-1),
		1e16,
		-1e16,
		1.0 / 3,
		float64(rank) + 0.1,
	}
	return pool[(rank*7+i*3+rank*i)%len(pool)]
}

func rdvCases() []rdvCase {
	const elems = 10
	var cases []rdvCase
	for _, op := range []Op{OpSum, OpMax, OpMin} {
		op := op
		cases = append(cases, rdvCase{
			name: "special/allreduce/" + op.String(),
			body: func(r *Rank, out [][]byte) {
				vals := make([]float64, elems)
				for i := range vals {
					vals[i] = specialFloat(r.ID(), i)
				}
				send := r.FromFloat64s(vals)
				recv := r.NewFloat64Buffer(elems)
				r.Allreduce(send, recv, elems, Float64, op, CommWorld)
				record(out, r, recv)
				// In place: send and recv are the same buffer.
				r.Allreduce(send, send, elems, Float64, op, CommWorld)
				record(out, r, send)
				// Repeated contributions: neighbouring ranks often hold
				// equal accumulators whose partners differ.
				for i := range vals {
					vals[i] = specialFloat(r.ID()*r.ID()%3, i)
				}
				send = r.FromFloat64s(vals)
				r.Allreduce(send, recv, elems, Float64, op, CommWorld)
				record(out, r, recv)
			},
		})
	}
	cases = append(cases,
		rdvCase{
			name: "special/allgather+bcast",
			body: func(r *Rank, out [][]byte) {
				n := r.NumRanks()
				vals := make([]float64, 3)
				for i := range vals {
					vals[i] = specialFloat(r.ID(), i)
				}
				send := r.FromFloat64s(vals)
				recv := r.NewFloat64Buffer(3 * n)
				r.Allgather(send, recv, 3, Float64, CommWorld)
				record(out, r, recv)
				r.Bcast(send, 3, Float64, n-1, CommWorld)
				record(out, r, send)
				r.Barrier(CommWorld)
			},
		},
		rdvCase{
			// Rank 1 dies before the Allreduce; the others park, the world
			// freezes, the slot falls back and the run is reaped.
			name: "crash-before-arrival",
			body: func(r *Rank, out [][]byte) {
				b := r.FromInt64s([]int64{int64(r.ID())})
				r.Bcast(b, 1, Int64, 0, CommWorld)
				record(out, r, b)
				if r.ID() == 1 {
					r.Abort("rank 1 crashes")
				}
				recv := r.NewInt64Buffer(1)
				r.Allreduce(b, recv, 1, Int64, OpSum, CommWorld)
				record(out, r, recv)
			},
		},
		rdvCase{
			// The last rank (a leaf of every binomial tree rooted at 0)
			// crashes before a Bcast: in the message algorithm every other
			// rank still receives the data and finishes.
			name: "crash-before-bcast-leaf",
			body: func(r *Rank, out [][]byte) {
				if r.ID() == r.NumRanks()-1 {
					r.Abort("leaf crashes")
				}
				b := r.FromInt64s([]int64{int64(r.ID() + 40)})
				r.Bcast(b, 1, Int64, 0, CommWorld)
				record(out, r, b)
				r.ReportResult(float64(b.Int64(0)))
			},
		},
		rdvCase{
			// A comm fault moves rank 2's first Allreduce onto a singleton
			// communicator, so its world sequence number lags the others by
			// one: its second call meets their first, and the others wait at
			// their last call for a rank that has finished.
			name: "comm-fault-shifts-seq",
			hook: func() Hook { return &commShiftHook{rank: 2} },
			body: func(r *Rank, out [][]byte) {
				self := r.CommSplit(CommWorld, r.ID(), 0)
				if r.ID() == 2 {
					shiftTarget.Store(int64(self))
				}
				r.Barrier(CommWorld)
				for k := 0; k < 3; k++ {
					send := r.FromInt64s([]int64{int64(r.ID()*10 + k)})
					recv := r.NewInt64Buffer(1)
					r.Allreduce(send, recv, 1, Int64, OpSum, CommWorld)
					record(out, r, recv)
				}
			},
		},
		rdvCase{
			// Rank 1 calls Barrier where the others call Allreduce: the
			// two algorithms' internal tags collide at the same sequence
			// number.
			name: "barrier-meets-allreduce",
			body: func(r *Rank, out [][]byte) {
				if r.ID() == 1 {
					r.Barrier(CommWorld)
					return
				}
				send := r.FromFloat64s([]float64{float64(r.ID())})
				recv := r.NewFloat64Buffer(1)
				r.Allreduce(send, recv, 1, Float64, OpSum, CommWorld)
				record(out, r, recv)
			},
		},
		rdvCase{
			// The Bcast root goes on to a user Send that the other ranks
			// receive before their own Bcast. The message algorithm lets
			// the root through at once; the rendezvous parks it until the
			// world freezes and the supervisor releases the slot.
			name: "bcast-root-sends-first",
			body: func(r *Rank, out [][]byte) {
				b := r.NewInt64Buffer(2)
				if r.ID() == 0 {
					b.SetInt64(0, 11)
					b.SetInt64(1, 22)
					r.Bcast(b, 2, Int64, 0, CommWorld)
					for p := 1; p < r.NumRanks(); p++ {
						r.Send(CommWorld, p, 5, []byte{byte(p)})
					}
				} else {
					out[r.ID()] = append(out[r.ID()], r.Recv(CommWorld, 0, 5)...)
					r.Bcast(b, 2, Int64, 0, CommWorld)
				}
				record(out, r, b)
				r.Barrier(CommWorld)
			},
		},
	)
	// Parameter faults on one rank: a mismatch, or an access that needs
	// heap slack, sends the instance down the message path, where it
	// truncates, reads garbage or hangs exactly as before.
	for _, f := range []struct {
		name  string
		fault func(c *CollectiveCall)
	}{
		{"count-mismatch", func(c *CollectiveCall) {
			if c.Type == CollAllreduce && c.Rank == 1 {
				c.Args.Count = 1
			}
		}},
		{"dtype-mismatch", func(c *CollectiveCall) {
			if c.Type == CollAllreduce && c.Rank == 1 {
				c.Args.Dtype = Float64
			}
		}},
		{"op-mismatch", func(c *CollectiveCall) {
			if c.Type == CollAllreduce && c.Rank == 0 {
				c.Args.Op = OpMax
			}
		}},
		{"root-mismatch", func(c *CollectiveCall) {
			if c.Type == CollBcast && c.Rank == 2 {
				c.Args.Root = 0
			}
		}},
		{"allgather-count-into-slack", func(c *CollectiveCall) {
			if c.Type == CollAllgather && c.Rank == 0 {
				c.Args.Count = 3
			}
		}},
		{"short-recv-buffer", func(c *CollectiveCall) {
			// Parameters agree, but rank 3's result lands past the end of
			// its buffer: a stray write the message path drops.
			if c.Type == CollAllreduce && c.Rank == 3 {
				c.Args.Recv = shortBuffer
			}
		}},
	} {
		fault := f.fault
		cases = append(cases, rdvCase{
			name: "param-fault/" + f.name,
			hook: func() Hook { return faultHook(fault) },
			body: func(r *Rank, out [][]byte) {
				send := r.FromInt64s([]int64{int64(r.ID()) - 2, 3})
				recv := r.NewInt64Buffer(2 * r.NumRanks())
				r.Allreduce(send, recv, 2, Int64, OpSum, CommWorld)
				record(out, r, recv)
				r.Allgather(send, recv, 2, Int64, CommWorld)
				record(out, r, recv)
				r.Bcast(send, 2, Int64, 1, CommWorld)
				record(out, r, send)
				r.Barrier(CommWorld)
			},
		})
	}
	return cases
}

// shortBuffer is a one-element buffer no rank owns; the short-recv-buffer
// fault points one rank's Allreduce result at it.
var shortBuffer = NewInt64Buffer(1)

// faultHook applies a parameter fault before each collective.
type faultHook func(c *CollectiveCall)

func (h faultHook) BeforeCollective(c *CollectiveCall) { h(c) }
func (faultHook) AfterCollective(*CollectiveCall)      {}

// shiftTarget holds rank 2's singleton communicator handle for
// commShiftHook. The case runs its two legs one after the other, so a
// package-level value is enough.
var shiftTarget atomic.Int64

// commShiftHook rewrites one rank's first Allreduce communicator.
type commShiftHook struct {
	NopHook
	rank int
	done bool
}

func (h *commShiftHook) BeforeCollective(c *CollectiveCall) {
	if c.Rank == h.rank && c.Type == CollAllreduce && !h.done {
		h.done = true
		c.Args.Comm = Comm(shiftTarget.Load())
	}
}

// TestRendezvousMatchesMessagePath is the rendezvous≡message differential
// test. 6 ranks exercise Allreduce's reduce+bcast schedule; the powers of
// two exercise the butterfly, where ranks end with different bits.
func TestRendezvousMatchesMessagePath(t *testing.T) {
	for _, n := range []int{4, 6, 8, 32} {
		for _, c := range rdvCases() {
			n, c := n, c
			t.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(t *testing.T) {
				fast := runRdvCase(t, n, c, true)
				msg := runRdvCase(t, n, c, false)
				for i := 0; i < n; i++ {
					if !bytes.Equal(fast.out[i], msg.out[i]) {
						t.Errorf("rank %d output differs:\nrendezvous %x\nmessage    %x", i, fast.out[i], msg.out[i])
					}
					if fast.errs[i] != msg.errs[i] {
						t.Errorf("rank %d outcome differs:\nrendezvous %s\nmessage    %s", i, fast.errs[i], msg.errs[i])
					}
				}
				if fast.deadlock != msg.deadlock || fast.timedOut != msg.timedOut || fast.cancelled != msg.cancelled {
					t.Errorf("verdict differs: rendezvous deadlock=%v timeout=%v cancelled=%v, message deadlock=%v timeout=%v cancelled=%v",
						fast.deadlock, fast.timedOut, fast.cancelled, msg.deadlock, msg.timedOut, msg.cancelled)
				}
				if msg.releases != 0 {
					t.Errorf("message path released %d slots", msg.releases)
				}
				if c.name == "bcast-root-sends-first" && fast.releases == 0 {
					t.Error("root parked behind its own later Send was never released")
				}
			})
		}
	}
}

// The power-of-two butterfly leaves ranks with different bits on
// order-dependent inputs, so a single shared result would be wrong. Pin
// that the special-value case really exercises this.
func TestButterflyResultsDifferAcrossRanks(t *testing.T) {
	c := rdvCases()[0] // special/allreduce/MPI_SUM
	o := runRdvCase(t, 8, c, false)
	for i := 1; i < len(o.out); i++ {
		if !bytes.Equal(o.out[i], o.out[0]) {
			return
		}
	}
	t.Fatal("every rank got the same bits; the case does not test per-rank replay")
}
