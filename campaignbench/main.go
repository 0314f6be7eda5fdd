// Command campaignbench measures whole FastFIT campaigns: wall time, set-up
// time, CPU, peak memory and outcome agreement on three paper-shaped
// workloads, driven through the program's public campaign entry points
// (Engine.RunCampaign, Supervisor.Run, dist.NewCoordinator/RunWorker).
// With -trace 1 it instead runs one traced campaign plus layer probes and
// reports per-layer metrics derived from the Chrome trace and the labelled
// CPU profile it writes. See README.md.
//
// Usage, from the checkout root:
//
//	bash campaignbench/run.sh --workload minimd-ml --seed 1 --seconds 30 --trace 0
//	bash campaignbench/run.sh --write-reference
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// deadline bounds a whole benchmark process: a run that has not finished
// by then is reported as failed instead of hanging its caller.
const deadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	size     size
	refPath  string
	writeRef bool
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload to run (minimd-ml, npb-params, is-dist-adaptive)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: picks the order of campaign seeds")
	fs.IntVar(&o.seconds, "seconds", 30, "measuring time of one run")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "checkout root; outputs go to <root>/.bench_out")
	sizeName := fs.String("size", "paper", "workload size: paper or tiny")
	fs.StringVar(&o.refPath, "reference", "", "reference file (default <root>/campaignbench/reference.json)")
	fs.BoolVar(&o.writeRef, "write-reference", false, "run every campaign seed of the pool once and write the reference")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	sz, ok := sizes[*sizeName]
	if !ok {
		return nil, fmt.Errorf("unknown size %q", *sizeName)
	}
	o.size = sz
	if o.refPath == "" {
		o.refPath = filepath.Join(o.root, "campaignbench", "reference.json")
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	return o, nil
}

// errNoCampaign reports a run that measured nothing.
var errNoCampaign = errors.New("no campaign completed")

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	watchdog := time.AfterFunc(deadline+5*time.Second, func() {
		fmt.Fprintln(stderr, "campaignbench: run exceeded its deadline")
		os.Exit(3)
	})
	defer watchdog.Stop()

	if o.writeRef {
		err = writeReference(ctx, o, stderr)
	} else {
		err = measure(ctx, o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	return 0
}

// newEnv prepares the output directory of one workload.
func newEnv(o *options, name string, traced bool) (*env, string, error) {
	out := filepath.Join(o.root, ".bench_out", name)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, "", err
	}
	tmp, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return nil, "", err
	}
	e := &env{size: o.size, tmp: tmp, nproc: runtime.NumCPU()}
	if traced {
		e.rec = newRecorder()
	}
	return e, out, nil
}

// campaignSeeds orders a workload's pool of referenced campaign seeds by
// the workload seed. Every run covers the whole pool: a campaign's cost
// depends strongly on its seed (each trial that hangs until the 2 s
// wall-clock timeout adds to it), so medians over a seed-drawn subset
// would move with the draw rather than with the program.
func campaignSeeds(seed int64, pool int) []int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(pool)
	out := make([]int64, pool)
	for i, p := range perm {
		out[i] = int64(p + 1)
	}
	return out
}

// measure is one benchmark run: end-to-end metrics with -trace 0, the
// traced run with -trace 1.
func measure(ctx context.Context, o *options, stdout, stderr io.Writer) error {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	ref, err := loadReference(o.refPath)
	if err != nil {
		return err
	}
	if ref.Size != o.size.Name {
		return fmt.Errorf("reference %s is for size %q, not %q", o.refPath, ref.Size, o.size.Name)
	}
	e, out, err := newEnv(o, w.Name, o.trace == 1)
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.tmp)
	seeds := campaignSeeds(o.seed, o.size.Shapes[w.Name].Pool)

	var res *result
	if o.trace == 1 {
		res, err = measureTraced(ctx, o, w, e, out, seeds[0], ref, stderr)
	} else {
		res, err = measureEndToEnd(ctx, o, w, e, seeds, ref, stderr)
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	defs := map[string]metricDef{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		defs[d.Name] = d
	}
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %14.6g %-6s (%s is better)\n", n, res.Metrics[n].Value, res.Metrics[n].Unit, defs[n].Better)
	}
	fmt.Fprintf(stdout, "%-32s %14.6g %-6s (%d harness failures in %d trials)\n", "failed_frac",
		float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// tally accumulates the correctness and failure accounting of a run.
type tally struct {
	correct   bool
	attempted int
	failed    int
	agr       agreement
}

func (t *tally) add(workload string, cr *campaignRun, err error, ref *reference, stderr io.Writer) {
	if err != nil {
		t.failed++
		fmt.Fprintln(stderr, "campaign error:", err)
		return
	}
	t.attempted += cr.Trials()
	t.failed += cr.Failures()
	agr, bad := checkCampaign(workload, cr, ref)
	t.agr.Agree += agr.Agree
	t.agr.Measured += agr.Measured
	for _, b := range bad {
		t.correct = false
		fmt.Fprintln(stderr, "check failed:", b)
	}
}

func measureEndToEnd(ctx context.Context, o *options, w workload, e *env, seeds []int64, ref *reference, stderr io.Writer) (*result, error) {
	budget := time.Duration(o.seconds) * time.Second
	t := &tally{correct: true}
	var campaign, setup, cpu []float64
	start := time.Now()
	// Whole passes over the pool only, so every run measures the same
	// campaigns; another pass starts only if one more still fits.
	for pass := 1; ; pass++ {
		for _, seed := range seeds {
			cr, err := runCampaign(ctx, w, e, seed)
			t.add(w.Name, cr, err, ref, stderr)
			if err != nil {
				if ctx.Err() != nil {
					return nil, err
				}
				continue
			}
			campaign = append(campaign, cr.Campaign.Seconds())
			setup = append(setup, cr.Setup.Seconds())
			cpu = append(cpu, cr.CPU.Seconds())
			fmt.Fprintf(stderr, "%s seed %d: campaign %.3fs setup %.3fs cpu %.3fs trials %d\n",
				w.Name, seed, cr.Campaign.Seconds(), cr.Setup.Seconds(), cr.CPU.Seconds(), cr.Trials())
		}
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(pass) > budget {
			break
		}
	}
	if len(campaign) == 0 {
		return nil, errNoCampaign
	}
	return &result{
		Correct:   t.correct,
		Attempted: max(t.attempted, 1),
		Failed:    t.failed,
		Metrics: map[string]metricValue{
			"campaign_s":    {median(campaign), "s"},
			"setup_s":       {median(setup), "s"},
			"cpu_s":         {median(cpu), "s"},
			"rss_peak_mb":   {peakRSSMB(), "MB"},
			"outcome_agree": {t.agr.frac(), "ratio"},
		},
	}, nil
}

// writeReference runs every campaign seed of the pool once per workload
// and records plans and dominant outcomes.
func writeReference(ctx context.Context, o *options, stderr io.Writer) error {
	ref := &reference{Size: o.size.Name, Workloads: map[string]map[string][]legReference{}}
	if old, err := loadReference(o.refPath); err == nil && old.Size == o.size.Name {
		ref = old
	}
	for _, w := range workloads {
		if o.workload != "" && w.Name != o.workload {
			continue
		}
		e, _, err := newEnv(o, w.Name, false)
		if err != nil {
			return err
		}
		byseed := map[string][]legReference{}
		for s := 1; s <= o.size.Shapes[w.Name].Pool; s++ {
			cr, err := runCampaign(ctx, w, e, int64(s))
			if err != nil {
				os.RemoveAll(e.tmp)
				return err
			}
			for _, l := range cr.Legs {
				if bad := invariants(l); len(bad) > 0 {
					os.RemoveAll(e.tmp)
					return fmt.Errorf("%s seed %d: %v", w.Name, s, bad)
				}
			}
			byseed[strconv.Itoa(s)] = referenceOf(cr)
			fmt.Fprintf(stderr, "%s seed %d: %.3fs\n", w.Name, s, cr.Campaign.Seconds())
		}
		os.RemoveAll(e.tmp)
		ref.Workloads[w.Name] = byseed
	}
	return ref.save(o.refPath)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
