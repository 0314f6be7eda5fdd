package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/fastfit/fastfit/internal/apps/all"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/dist"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

// The layer probes time the benchmark's own calls into each layer's public
// functions. They run after the traced campaign, serially, each under its
// own span and CPU-profile label, and record what they measure into the
// trace; layers.go derives the per-layer metrics from it.

// probeCore times profiling and pruning on a fresh engine per leg and
// returns the engines (profiled, no snapshot cut yet) with their plans.
func probeCore(ctx context.Context, e *env, parent int, cr *campaignRun) ([]*core.Engine, [][]core.Point, error) {
	var engines []*core.Engine
	var plans [][]core.Point
	for _, l := range cr.Legs {
		eng := core.New(l.App, l.Cfg, l.Opts)
		args := map[string]any{"app": l.App.Name()}
		var err error
		e.rec.do(ctx, "core.profile", "layer", parent, args, func(context.Context, int) { _, err = eng.Profile() })
		if err != nil {
			return nil, nil, err
		}
		var points []core.Point
		e.rec.do(ctx, "core.prune", "layer", parent, args, func(context.Context, int) {
			if points, err = eng.Points(); err != nil {
				return
			}
			prof, _ := eng.Profile() // cached by the call above
			points, _ = core.SemanticPrune(prof, points)
			points, _ = core.ContextPrune(points)
		})
		if err != nil {
			return nil, nil, err
		}
		if len(points) != l.Res.AfterContext {
			return nil, nil, fmt.Errorf("%s: probe planned %d points, campaign %d", l.App.Name(), len(points), l.Res.AfterContext)
		}
		engines = append(engines, eng)
		plans = append(plans, points)
	}
	return engines, plans, nil
}

// outcomeSlug is an outcome as a metric-name suffix.
func outcomeSlug(o classify.Outcome) string {
	if o >= 0 && int(o) < len(outcomeSlugs) {
		return outcomeSlugs[o]
	}
	return "unknown"
}

// digestReps is how often each trial result is re-classified, so one
// classification's nanoseconds are resolved.
const digestReps = 200

// maxInfLoopReplays caps the INF_LOOP trials one leg's probe replays: a
// trial that hangs until the wall-clock timeout holds the probe for 2 s.
const maxInfLoopReplays = 4

// probeTrials replays trials of the campaign itself, serially, on a fresh
// engine: at every measured point the first trial of each outcome the point
// produced, then further trials in order up to ProbeTrials. A trial's
// (target, bit) and the point give back its exact fault, so the probe times
// the campaign's own fault mix, INF_LOOP trials included. The first RunOnce
// at a point cuts that point's snapshot. Each result is classified again
// through a golden digest, timed, and must agree with RunOnce's outcome.
func probeTrials(ctx context.Context, e *env, parent int, l *leg, eng *core.Engine) error {
	digest := classify.NewDigest(eng.Golden(), classify.DefaultTolerance)
	var m0, m1 runtime.MemStats
	var allocs, bytes uint64
	n, infLoops, drift := 0, 0, 0
	for i, pr := range l.Res.Measured {
		first := true
		for _, ti := range pickTrials(pr, e.size.ProbeTrials) {
			if err := ctx.Err(); err != nil {
				return err
			}
			tr := pr.Trials[ti]
			if tr.Outcome == classify.InfLoop {
				if infLoops == maxInfLoopReplays {
					continue
				}
				infLoops++
			}
			p := pr.Point
			f := fault.Fault{Rank: p.Rank, Site: p.Site, Invocation: p.Invocation, Target: tr.Target, Bit: tr.Bit}
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			out, res := eng.RunOnce(f)
			t1 := time.Now()
			runtime.ReadMemStats(&m1)
			allocs += m1.Mallocs - m0.Mallocs
			bytes += m1.TotalAlloc - m0.TotalAlloc
			n++
			if out != tr.Outcome {
				drift++
			}
			e.rec.add("trial", "layer", parent, t0, t1, map[string]any{
				"app": l.App.Name(), "point": i, "trial": ti, "outcome": outcomeSlug(out),
				"campaign_outcome": outcomeSlug(tr.Outcome), "first": first,
			})
			first = false
			c0 := time.Now()
			for k := 0; k < digestReps; k++ {
				if got := digest.Classify(res); got != out {
					return fmt.Errorf("%s point %d: digest classified %v, RunOnce %v", l.App.Name(), i, got, out)
				}
			}
			e.rec.add("classify.digest", "layer", parent, c0, time.Now(), map[string]any{"ops": digestReps})
		}
	}
	e.rec.count("trial.mem", map[string]float64{"trials": float64(n), "allocs": float64(allocs), "bytes": float64(bytes)})
	// A replayed trial whose outcome differs from the campaign's is the
	// scheduling-dependent classification the deadlock fallback causes.
	e.rec.count("trial.replay", map[string]float64{"trials": float64(n), "drift": float64(drift)})
	return nil
}

// pickTrials lists the trial indexes probeTrials replays at one point.
func pickTrials(pr core.PointResult, n int) []int {
	var out []int
	picked := make([]bool, len(pr.Trials))
	var seen [classify.NumOutcomes]bool
	for i, t := range pr.Trials {
		if !seen[t.Outcome] {
			seen[t.Outcome], picked[i] = true, true
			out = append(out, i)
		}
	}
	for i := range pr.Trials {
		if len(out) >= n {
			break
		}
		if !picked[i] {
			out = append(out, i)
		}
	}
	return out
}

// probeLearn replays the ML injection/learning loop over the campaign's
// cached point results, so only learning is timed. A point the cache does
// not hold is injected for real and counted as a miss.
func probeLearn(ctx context.Context, e *env, parent int, l *leg, points []core.Point) {
	cache := map[string]core.PointResult{}
	for _, pr := range l.Res.Measured {
		cache[pointKey(pr.Point)] = pr
	}
	opts := l.Opts
	opts.ML = core.DefaultOptions().ML
	rounds := 0
	opts.Observer = core.ObserverFunc(func(ev core.Event) {
		if _, ok := ev.(core.BatchVerified); ok {
			rounds++
		}
	})
	eng := core.New(l.App, l.Cfg, opts)
	misses := 0
	var lr core.LearnResult
	e.rec.do(ctx, "ml.learn_self", "layer", parent, map[string]any{"app": l.App.Name()}, func(_ context.Context, id int) {
		lr = eng.LearnCampaignWith(points, func(p core.Point, idx int) core.PointResult {
			if pr, ok := cache[pointKey(p)]; ok {
				return pr
			}
			misses++
			return eng.InjectPoint(p, idx, opts.TrialsPerPoint)
		})
		e.rec.end(id, map[string]any{"misses": misses})
	})
	e.rec.count("ml", map[string]float64{"verify_rounds": float64(rounds), "verify_accuracy": lr.VerifyAccuracy, "legs": 1})
}

// probeResume resumes a finished supervised campaign from its journal on a
// fresh engine: zero injection, so it times journal load and replay (plus
// the engine's profiling run, which any resume pays).
func probeResume(ctx context.Context, e *env, parent int, l *leg) error {
	fi, err := os.Stat(l.Journal)
	if err != nil {
		return err
	}
	e.rec.count("journal", map[string]float64{"bytes": float64(fi.Size()), "records": float64(l.Stamp.journalRecs)})
	eng := core.New(l.App, l.Cfg, l.Opts)
	var sup *core.SupervisedResult
	e.rec.do(ctx, "journal.resume", "layer", parent, map[string]any{"app": l.App.Name()}, func(ctx context.Context, _ int) {
		sup, err = core.ResumeCampaign(ctx, eng, core.SupervisorOptions{Workers: e.nproc, Checkpoint: l.Journal})
	})
	if err != nil {
		return err
	}
	if sup.FromCheckpoint != len(l.Res.Measured) || sup.Injected != l.Res.Injected {
		return fmt.Errorf("%s: resume restored %d points (%d injected), campaign measured %d",
			l.App.Name(), sup.FromCheckpoint, sup.Injected, len(l.Res.Measured))
	}
	return nil
}

// probeRecover recovers a coordinator from the campaign's write-ahead log
// as it stood when its record set completed.
func probeRecover(ctx context.Context, e *env, parent int, cr *campaignRun) error {
	e.rec.count("dist", map[string]float64{
		"leases":         float64(cr.Status.LeasesGranted),
		"leases_expired": float64(cr.Status.LeasesExpired),
		"wal_bytes":      float64(cr.WALBytes),
	})
	var c *dist.Coordinator
	var err error
	e.rec.do(ctx, "dist.recover", "layer", parent, nil, func(context.Context, int) {
		// The recovered coordinator is complete and is never merged; it
		// has no Close, so its log file is released when it is collected.
		c, err = dist.RecoverCoordinator(cr.WALCopy, all.Lookup, dist.CoordinatorOptions{})
	})
	if err != nil {
		return err
	}
	if st := c.Status(); !st.Complete || st.Recorded+st.Quarantined != st.Points {
		return fmt.Errorf("recovered coordinator holds %d+%d of %d points", st.Recorded, st.Quarantined, st.Points)
	}
	return nil
}

// probeMPI times the simulated runtime directly: collectives and a
// point-to-point ring at the workload's rank count (per call, measured on
// rank 0 between barriers), world spawn, and one fault-free run of each
// application.
func probeMPI(ctx context.Context, e *env, parent int) error {
	ranks, iters := e.size.Ranks, e.size.MPIIters
	type collective struct {
		name string
		op   func(r *mpi.Rank, send, recv *mpi.Buffer, ring []byte)
	}
	colls := []collective{
		{"mpi.allreduce", func(r *mpi.Rank, send, recv *mpi.Buffer, _ []byte) {
			r.Allreduce(send, recv, 8, mpi.Float64, mpi.OpSum, mpi.CommWorld)
		}},
		{"mpi.bcast", func(r *mpi.Rank, send, _ *mpi.Buffer, _ []byte) {
			r.Bcast(send, 128, mpi.Float64, 0, mpi.CommWorld)
		}},
		{"mpi.alltoall", func(r *mpi.Rank, send, recv *mpi.Buffer, _ []byte) {
			r.Alltoall(send, recv, 8, mpi.Float64, mpi.CommWorld)
		}},
		{"mpi.barrier", func(r *mpi.Rank, _, _ *mpi.Buffer, _ []byte) { r.Barrier(mpi.CommWorld) }},
		{"mpi.p2p_ring", func(r *mpi.Rank, _, _ *mpi.Buffer, ring []byte) {
			n := r.Size(mpi.CommWorld)
			r.Sendrecv(mpi.CommWorld, (r.ID()+1)%n, 7, ring, (r.ID()+n-1)%n, 7)
		}},
	}
	for _, c := range colls {
		var t0, t1 time.Time
		var res mpi.RunResult
		e.rec.do(ctx, c.name, "layer", parent, map[string]any{"ranks": ranks}, func(ctx context.Context, id int) {
			res = mpi.Run(mpi.RunOptions{NumRanks: ranks, Seed: 1, Timeout: time.Minute, WorkBudget: -1, Context: ctx},
				func(r *mpi.Rank) error {
					send := mpi.NewFloat64Buffer(max(8*ranks, 128))
					recv := mpi.NewFloat64Buffer(8 * ranks)
					ring := make([]byte, 64)
					r.Barrier(mpi.CommWorld)
					if r.ID() == 0 {
						t0 = time.Now()
					}
					for i := 0; i < iters; i++ {
						c.op(r, send, recv, ring)
					}
					r.Barrier(mpi.CommWorld)
					if r.ID() == 0 {
						t1 = time.Now()
					}
					return nil
				})
			e.rec.add(c.name+".loop", "layer", id, t0, t1, map[string]any{"ops": iters})
		})
		if err := res.FirstError(); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	spawns := max(iters/10, 1)
	e.rec.do(ctx, "mpi.spawn", "layer", parent, map[string]any{"ops": spawns, "ranks": ranks}, func(context.Context, int) {
		for i := 0; i < spawns; i++ {
			mpi.Run(mpi.RunOptions{NumRanks: ranks, Seed: 1}, func(*mpi.Rank) error { return nil })
		}
	})
	for _, name := range goldenApps {
		app, cfg, err := appConfig(e.size, name)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			var res mpi.RunResult
			e.rec.do(ctx, "mpi.golden_run", "layer", parent, map[string]any{"app": name}, func(ctx context.Context, _ int) {
				res = mpi.Run(mpi.RunOptions{NumRanks: cfg.Ranks, Seed: cfg.Seed, Timeout: 30 * time.Second, Context: ctx},
					func(r *mpi.Rank) error { return app.Main(r, cfg) })
			})
			if err := res.FirstError(); err != nil {
				return fmt.Errorf("golden run of %s: %w", name, err)
			}
		}
	}
	return nil
}
