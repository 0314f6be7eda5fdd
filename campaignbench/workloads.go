package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/apps/all"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/dist"
	"github.com/fastfit/fastfit/internal/experiments"
)

// size scales every workload. "paper" is the benchmark proper: the paper's
// 32 ranks and application scales, with trial budgets cut so that a whole
// pass over a workload's campaign seeds fits in one measured run. "tiny"
// runs the same code paths in well under a second per campaign, for the
// benchmark's own tests.
type size struct {
	Name        string
	Ranks       int
	Shapes      map[string]shape // by workload name
	ProbeTrials int              // RunOnce calls per pruned point in the trial probe
	MPIIters    int              // calls per collective microbenchmark
}

// shape is one workload's trial budget per point and the number of
// campaign seeds (1..Pool, each with a committed reference) a run covers.
type shape struct {
	Trials int
	Pool   int
}

var sizes = map[string]size{
	"paper": {Name: "paper", Ranks: 32, ProbeTrials: 4, MPIIters: 200, Shapes: map[string]shape{
		"minimd-ml": {Trials: 15, Pool: 3}, "npb-params": {Trials: 15, Pool: 6}, "is-dist-adaptive": {Trials: 30, Pool: 8},
	}},
	"tiny": {Name: "tiny", Ranks: 4, ProbeTrials: 1, MPIIters: 10, Shapes: map[string]shape{
		"minimd-ml": {Trials: 3, Pool: 2}, "npb-params": {Trials: 3, Pool: 2}, "is-dist-adaptive": {Trials: 12, Pool: 2},
	}},
}

// env is what one benchmark process shares across its campaigns.
type env struct {
	size  size
	tmp   string    // journals and WAL stores; removed when the process ends
	rec   *recorder // nil when tracing is off
	nproc int
}

// leg is one application campaign inside a workload iteration: npb-params
// runs three, the other workloads one.
type leg struct {
	App  apps.App
	Cfg  apps.Config
	Opts core.Options // without Observer

	Res         *core.CampaignResult
	Quarantined int
	Retries     int
	Journal     string // checkpoint journal, when the leg keeps one
	Stamp       *stamper
	Eng         *core.Engine
}

// campaignRun is one workload iteration: the unit campaign_s, setup_s and
// cpu_s are taken over.
type campaignRun struct {
	Seed     int64
	Campaign time.Duration // engine construction until the result is returned
	Setup    time.Duration // engine construction until the first PointStarted
	CPU      time.Duration // user+sys CPU of the process over the campaign
	Legs     []*leg
	Span     int

	// is-dist-adaptive only.
	Status   dist.StatusReply
	WALBytes int64
	WALCopy  string // the store as it stood when the record set completed
	Settled  int
	Refined  int
}

// Trials is the number of trials the campaign ran, refinement included.
func (c *campaignRun) Trials() int {
	n := 0
	for _, l := range c.Legs {
		for _, pr := range l.Res.Measured {
			n += len(pr.Trials)
		}
	}
	return n
}

// Failures counts harness retries and quarantined points.
func (c *campaignRun) Failures() int {
	n := 0
	for _, l := range c.Legs {
		n += l.Retries + l.Quarantined
	}
	return n
}

// workload is one named benchmark input: a campaign shape run through the
// program's public campaign entry points.
type workload struct {
	Name string
	Why  string
	run  func(ctx context.Context, e *env, seed int64, cr *campaignRun) error
}

var workloads = []workload{
	{
		Name: "minimd-ml",
		Why:  "paper LAMMPS study: Allreduce-heavy minimd at 32 ranks, data-buffer faults, all three prunings with the ML loop, serial RunCampaign",
		run:  runMinimd,
	},
	{
		Name: "npb-params",
		Why:  "Fig 7/8 NPB campaigns: IS, FT, LU at 32 ranks, parameter faults, point-parallel Supervisor with a checkpoint journal",
		run:  runNPB,
	},
	{
		Name: "is-dist-adaptive",
		Why:  "IS with adaptive budgets served by an in-process dist coordinator with a WAL over loopback HTTP to two RunWorker shards",
		run:  runDist,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// appConfig returns the experiments package's configuration for app at the
// size's rank count (32 ranks is the paper's scale).
func appConfig(sz size, name string) (apps.App, apps.Config, error) {
	st := experiments.NewStore(experiments.Scale{Ranks: sz.Ranks})
	return st.AppConfig(name)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runCampaign executes one iteration of w at seed, timing it as a whole.
func runCampaign(ctx context.Context, w workload, e *env, seed int64) (*campaignRun, error) {
	cr := &campaignRun{Seed: seed}
	// Start every campaign from a collected heap, so one campaign's garbage
	// is not collected on the next one's clock.
	runtime.GC()
	cpu0, t0 := cpuTime(), time.Now()
	var err error
	e.rec.do(ctx, "campaign", "campaign", 0, map[string]any{"workload": w.Name, "seed": seed},
		func(ctx context.Context, id int) {
			cr.Span = id
			err = w.run(ctx, e, seed, cr)
		})
	cr.Campaign = time.Since(t0)
	cr.CPU = cpuTime() - cpu0
	if err != nil {
		return cr, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
	}
	return cr, nil
}

// setupUntil is the set-up time of a campaign constructed at t0 whose
// first point started at first (the whole campaign when none did).
func setupUntil(t0, first time.Time) time.Duration {
	if first.IsZero() {
		return time.Since(t0)
	}
	return first.Sub(t0)
}

func runMinimd(ctx context.Context, e *env, seed int64, cr *campaignRun) error {
	app, cfg, err := appConfig(e.size, "minimd")
	if err != nil {
		return err
	}
	opts := core.DefaultOptions() // semantic, context and ML pruning
	opts.TrialsPerPoint = e.size.Shapes["minimd-ml"].Trials
	opts.Seed = seed
	opts.Policy = core.PolicyDataBuffer
	l := &leg{App: app, Cfg: cfg, Opts: opts}
	l.Stamp = newStamper(e.rec, cr.Span, app.Name())
	t0 := time.Now()
	withObs := opts
	withObs.Observer = l.Stamp
	l.Eng = core.New(app, cfg, withObs)
	if l.Res, err = l.Eng.RunCampaign(); err != nil {
		return err
	}
	cr.Setup = setupUntil(t0, l.Stamp.firstPoint)
	cr.Legs = []*leg{l}
	return nil
}

// npbApps are the NPB kernels of npb-params. MG is left out: at paper
// shape it alone costs more than the other three together, and LU already
// covers halo point-to-point traffic.
var npbApps = []string{"is", "ft", "lu"}

func runNPB(ctx context.Context, e *env, seed int64, cr *campaignRun) error {
	dir, err := os.MkdirTemp(e.tmp, "npb-")
	if err != nil {
		return err
	}
	if e.rec == nil {
		defer os.RemoveAll(dir)
	}
	for _, name := range npbApps {
		app, cfg, err := appConfig(e.size, name)
		if err != nil {
			return err
		}
		opts := core.DefaultOptions()
		opts.ML.Pruning = false
		opts.Policy = core.PolicyAllParams
		opts.TrialsPerPoint = e.size.Shapes["npb-params"].Trials
		opts.Seed = seed
		l := &leg{App: app, Cfg: cfg, Opts: opts, Journal: filepath.Join(dir, name+".ckpt")}
		t0 := time.Now()
		span := e.rec.begin("leg", "campaign", cr.Span, map[string]any{"app": name})
		l.Stamp = newStamper(e.rec, span, name)
		withObs := opts
		withObs.Observer = l.Stamp
		l.Eng = core.New(app, cfg, withObs)
		sup, err := core.NewSupervisor(l.Eng, core.SupervisorOptions{Workers: e.nproc, Checkpoint: l.Journal}).Run(ctx)
		e.rec.end(span, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if sup.Cancelled {
			return fmt.Errorf("%s: campaign cancelled", name)
		}
		l.Res, l.Quarantined, l.Retries = sup.CampaignResult, len(sup.Quarantined), sup.HarnessRetries
		cr.Setup += setupUntil(t0, l.Stamp.firstPoint)
		cr.Legs = append(cr.Legs, l)
	}
	return nil
}

// distLeaseSize splits IS's pruned points into several leases so both
// shards work and leases turn over during the campaign.
const distLeaseSize = 4

func runDist(ctx context.Context, e *env, seed int64, cr *campaignRun) error {
	app, cfg, err := appConfig(e.size, "is")
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.ML.Pruning = false
	opts.Policy = core.PolicyAllParams
	opts.TrialsPerPoint = e.size.Shapes["is-dist-adaptive"].Trials
	opts.Seed = seed
	opts.Adaptive = core.Adaptive{Enabled: true, Confidence: 0.999}
	store, err := os.MkdirTemp(e.tmp, "dist-")
	if err != nil {
		return err
	}
	if e.rec == nil {
		defer os.RemoveAll(store)
	}

	t0 := time.Now()
	l := &leg{App: app, Cfg: cfg, Opts: opts}
	open := e.rec.begin("dist.open", "layer", cr.Span, nil)
	l.Eng = core.New(app, cfg, opts)
	coord, err := dist.NewCoordinator(l.Eng, dist.CoordinatorOptions{Store: store, LeaseSize: distLeaseSize})
	e.rec.end(open, nil)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: coord.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	shards := min(2, e.nproc)
	errs := make([]error, shards)
	stampers := make([]*stamper, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		span := e.rec.begin("shard", "shard", cr.Span, map[string]any{"shard": i})
		st := newStamper(e.rec, span, app.Name())
		stampers[i] = st
		wg.Add(1)
		go func(i, span int) {
			defer wg.Done()
			errs[i] = dist.RunWorker(wctx, "http://"+ln.Addr().String(), dist.WorkerOptions{
				Name:         fmt.Sprintf("shard-%d", i),
				Lookup:       all.Lookup,
				Workers:      max(1, e.nproc/shards),
				PollInterval: 10 * time.Millisecond,
				Observer:     st,
			})
			e.rec.end(span, nil)
		}(i, span)
	}
	select {
	case <-coord.Done():
	case <-ctx.Done():
		cancel()
		wg.Wait()
		return ctx.Err()
	}
	if e.rec != nil {
		// RecoverCoordinator refuses a merged store, so the recovery probe
		// replays the log as it stood when the record set completed.
		cr.WALCopy = store + "-complete"
		if err := copyFile(filepath.Join(store, dist.WALFileName), filepath.Join(cr.WALCopy, dist.WALFileName)); err != nil {
			cancel()
			wg.Wait()
			return err
		}
	}
	merge := e.rec.begin("dist.merge", "layer", cr.Span, nil)
	sup, err := coord.Result(ctx)
	e.rec.end(merge, nil)
	wg.Wait()
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	for i, werr := range errs {
		if werr != nil {
			return fmt.Errorf("shard %d: %w", i, werr)
		}
	}
	cr.Status = coord.Status()
	if fi, err := os.Stat(filepath.Join(store, dist.WALFileName)); err == nil {
		cr.WALBytes = fi.Size()
	}

	var first time.Time
	phase1 := map[string]int{}
	for _, st := range stampers {
		if !st.firstPoint.IsZero() && (first.IsZero() || st.firstPoint.After(first)) {
			first = st.firstPoint
		}
		l.Retries += st.retries
		cr.Settled += st.settled
		for k, n := range st.phase1 {
			phase1[k] = n
		}
	}
	cr.Setup = setupUntil(t0, first)
	l.Res, l.Quarantined = sup.CampaignResult, len(sup.Quarantined)
	// The merge runs the refinement pass on the coordinator's engine, which
	// publishes no events; a refined point is one whose merged record has
	// more trials than its shard measured.
	for _, pr := range l.Res.Measured {
		if n, ok := phase1[pointKey(pr.Point)]; ok && len(pr.Trials) > n {
			cr.Refined++
		}
	}
	l.Stamp = &stamper{fork: l.Eng.SnapshotStats()}
	cr.Legs = []*leg{l}
	return nil
}

func copyFile(src, dst string) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
