package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
)

// measureTraced is the traced run: one untraced campaign (the overhead
// baseline), the same campaign traced under a CPU profile, then the layer
// probes under a second profile. Every per-layer metric is then derived
// from the files it wrote: trace.json, cpu.pprof (the traced campaign) and
// probes.pprof.
func measureTraced(ctx context.Context, o *options, w workload, e *env, out string, seed int64, ref *reference, stderr io.Writer) (*result, error) {
	t := &tally{correct: true}
	rec := e.rec
	e.rec = nil
	base, err := runCampaign(ctx, w, e, seed)
	t.add(w.Name, base, err, ref, stderr)
	e.rec = rec
	if err != nil {
		return nil, err
	}

	tracePath := filepath.Join(out, "trace.json")
	cpuPath := filepath.Join(out, "cpu.pprof")
	probePath := filepath.Join(out, "probes.pprof")
	var cr *campaignRun
	err = withCPUProfile(cpuPath, func() error {
		cr, err = runCampaign(ctx, w, e, seed)
		return err
	})
	t.add(w.Name, cr, err, ref, stderr)
	if err != nil {
		return nil, err
	}
	recordCampaign(e.rec, cr, base)

	err = withCPUProfile(probePath, func() error { return runProbes(ctx, e, cr) })
	if err != nil {
		// A probe that fails (a digest disagreeing with RunOnce, a resume
		// restoring the wrong points) is a wrong output of the program.
		t.correct = false
		t.failed++
		fmt.Fprintln(stderr, "probe failed:", err)
	}
	if err := e.rec.writeChrome(tracePath); err != nil {
		return nil, err
	}
	metrics, absent, err := deriveLayers(tracePath, cpuPath)
	if err != nil {
		return nil, err
	}
	for _, a := range absent {
		fmt.Fprintln(stderr, "layer note:", a)
	}
	if err := writeJSON(filepath.Join(out, "layers.json"), map[string]any{"metrics": metrics, "absent": absent}); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "trace: %s\ncpu profile: %s\nprobe profile: %s\n", tracePath, cpuPath, probePath)
	return &result{Correct: t.correct, Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: metrics}, nil
}

func withCPUProfile(path string, fn func() error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil && ferr == nil {
		return err
	}
	return ferr
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// recordCampaign stores the traced campaign's accounting as counters.
func recordCampaign(rec *recorder, cr, base *campaignRun) {
	settled, refined := cr.Settled, cr.Refined
	for _, l := range cr.Legs {
		res := l.Res
		rec.count("points", map[string]float64{
			"total": float64(res.TotalPoints), "after_semantic": float64(res.AfterSemantic),
			"after_context": float64(res.AfterContext),
		})
		fk := l.Stamp.fork
		rec.count("fork", map[string]float64{
			"forked": float64(fk.Forked), "replayed": float64(fk.Replayed), "snapshots": float64(fk.Snapshots),
		})
		settled += l.Stamp.settled
		refined += l.Stamp.refined
	}
	rec.count("adaptive", map[string]float64{"settled": float64(settled), "refined": float64(refined)})
	rec.count("campaign", map[string]float64{"trials": float64(cr.Trials()), "untraced_s": base.Campaign.Seconds()})
}

// runProbes runs every layer probe that applies to the campaign.
func runProbes(ctx context.Context, e *env, cr *campaignRun) error {
	var err error
	e.rec.do(ctx, "probes", "probe", 0, nil, func(ctx context.Context, parent int) {
		err = func() error {
			engines, plans, err := probeCore(ctx, e, parent, cr)
			if err != nil {
				return err
			}
			for i, l := range cr.Legs {
				if err := probeTrials(ctx, e, parent, l, engines[i]); err != nil {
					return err
				}
			}
			if err := probeMPI(ctx, e, parent); err != nil {
				return err
			}
			for i, l := range cr.Legs {
				probeLearn(ctx, e, parent, l, plans[i])
			}
			for _, l := range cr.Legs {
				if l.Journal != "" {
					if err := probeResume(ctx, e, parent, l); err != nil {
						return err
					}
				}
			}
			if cr.WALCopy != "" {
				return probeRecover(ctx, e, parent, cr)
			}
			return nil
		}()
	})
	return err
}

// traceEvent is a Chrome trace event as read back from trace.json.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// deriveLayers computes every per-layer metric from the traced run's
// trace file and campaign CPU profile. Metrics whose layer did no work in
// this workload read 0 and are listed in the returned notes.
func deriveLayers(tracePath, cpuPath string) (map[string]metricValue, []string, error) {
	data, err := os.ReadFile(tracePath)
	if err != nil {
		return nil, nil, err
	}
	var tr struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, nil, fmt.Errorf("parsing %s: %w", tracePath, err)
	}
	spans := map[string][]traceEvent{}
	counters := map[string]map[string]float64{}
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "X":
			spans[ev.Name] = append(spans[ev.Name], ev)
		case "C":
			c := counters[ev.Name]
			if c == nil {
				c = map[string]float64{}
				counters[ev.Name] = c
			}
			for k, v := range ev.Args {
				if f, ok := v.(float64); ok {
					c[k] += f
				}
			}
		}
	}
	sumS := func(name string) float64 {
		total := 0.0
		for _, ev := range spans[name] {
			total += ev.Dur
		}
		return total / 1e6
	}
	durMS := func(evs []traceEvent) []float64 {
		out := make([]float64, len(evs))
		for i, ev := range evs {
			out[i] = ev.Dur / 1e3
		}
		return out
	}
	where := func(name string, keep func(traceEvent) bool) []traceEvent {
		var out []traceEvent
		for _, ev := range spans[name] {
			if keep(ev) {
				out = append(out, ev)
			}
		}
		return out
	}
	perOp := func(name string) float64 { // microseconds per operation
		dur, ops := 0.0, 0.0
		for _, ev := range spans[name] {
			dur += ev.Dur
			if f, ok := ev.Args["ops"].(float64); ok {
				ops += f
			}
		}
		if ops == 0 {
			return 0
		}
		return dur / ops
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m := map[string]float64{}
	m["core.profile_s"] = sumS("core.profile")
	m["core.prune_s"] = sumS("core.prune")
	m["core.phase_injecting_s"] = sumS("inject")
	m["core.phase_learning_s"] = sumS("learn")
	// A distributed campaign refines inside the coordinator's merge, whose
	// engine publishes no phase events; the merge span stands in for it.
	m["core.phase_refining_s"] = sumS("refine") + sumS("dist.merge")
	points := durMS(where("point", func(ev traceEvent) bool { return ev.Args["quarantined"] == nil }))
	m["core.point_ms_p50"] = quantile(points, 0.5)
	m["core.point_ms_p90"] = quantile(points, 0.9)
	m["core.point_samples"] = float64(len(points))
	campaign := where("campaign", func(ev traceEvent) bool { return ev.Cat == "campaign" })
	campaignS := 0.0
	for _, ev := range campaign {
		campaignS += ev.Dur / 1e6
	}
	m["core.trials"] = counters["campaign"]["trials"]
	m["core.trials_per_s"] = ratio(m["core.trials"], campaignS)
	m["core.points_total"] = counters["points"]["total"]
	m["core.points_after_semantic"] = counters["points"]["after_semantic"]
	m["core.points_after_context"] = counters["points"]["after_context"]

	fk := counters["fork"]
	m["fork.forked"], m["fork.replayed"], m["fork.snapshots"] = fk["forked"], fk["replayed"], fk["snapshots"]
	m["fork.hit_ratio"] = ratio(fk["forked"], fk["forked"]+fk["replayed"])
	m["fork.first_trial_ms_p50"] = median(durMS(where("trial", func(ev traceEvent) bool { return ev.Args["first"] == true })))

	trials := durMS(spans["trial"])
	m["trial.samples"] = float64(len(trials))
	m["trial.ms_p50"] = quantile(trials, 0.5)
	m["trial.ms_p90"] = quantile(trials, 0.9)
	m["trial.ms_p99"] = quantile(trials, 0.99)
	for _, o := range outcomeSlugs {
		got := durMS(where("trial", func(ev traceEvent) bool { return ev.Args["outcome"] == o }))
		m["trial.ms_p50."+o] = median(got)
		m["trial.samples."+o] = float64(len(got))
	}
	mem := counters["trial.mem"]
	m["trial.allocs"] = ratio(mem["allocs"], mem["trials"])
	m["trial.kb"] = ratio(mem["bytes"]/1024, mem["trials"])

	for _, c := range []string{"allreduce", "bcast", "alltoall", "barrier", "p2p_ring"} {
		m["mpi."+c+"_us"] = perOp("mpi." + c + ".loop")
	}
	m["mpi.spawn_us"] = perOp("mpi.spawn")
	for _, a := range goldenApps {
		m["mpi.golden_run_ms."+a] = median(durMS(where("mpi.golden_run", func(ev traceEvent) bool { return ev.Args["app"] == a })))
	}
	m["classify.digest_ns"] = perOp("classify.digest") * 1e3

	ml := counters["ml"]
	m["ml.learn_self_s"] = sumS("ml.learn_self")
	m["ml.verify_rounds"] = ml["verify_rounds"]
	m["ml.verify_accuracy"] = ratio(ml["verify_accuracy"], ml["legs"])
	m["adaptive.settled_points"] = counters["adaptive"]["settled"]
	m["adaptive.refined_points"] = counters["adaptive"]["refined"]
	m["journal.bytes"] = counters["journal"]["bytes"]
	m["journal.records"] = counters["journal"]["records"]
	m["journal.resume_s"] = sumS("journal.resume")
	d := counters["dist"]
	m["dist.leases"], m["dist.leases_expired"], m["dist.wal_bytes"] = d["leases"], d["leases_expired"], d["wal_bytes"]
	m["dist.merge_s"] = sumS("dist.merge")
	m["dist.recover_s"] = sumS("dist.recover")
	m["trace.overhead_frac"] = ratio(campaignS, counters["campaign"]["untraced_s"])

	samples, err := readCPUProfile(cpuPath)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range cpuShares(samples) {
		m[k] = v
	}

	var absent []string
	metrics := map[string]metricValue{}
	for _, def := range perLayer {
		v, ok := m[def.Name]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s was not derived", def.Name)
		}
		if v == 0 {
			absent = append(absent, def.Name+": no work of this layer in this workload's traced run")
		}
		metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	sort.Strings(absent)
	if r := counters["trial.replay"]; r["drift"] > 0 {
		absent = append(absent, fmt.Sprintf("trial probe: %v of %v replayed trials classified differently from the campaign",
			r["drift"], r["trials"]))
	}
	return metrics, absent, nil
}

const modulePrefix = "github.com/fastfit/fastfit/internal/"

// cpuCategories attribute CPU-profile samples. A sample counts toward every
// category with a matching frame on its stack, so the shares overlap
// (application frames call into the MPI runtime, which calls into the Go
// scheduler).
var cpuCategories = map[string]func(fn string) bool{
	"cpu.mpi_frac":       func(fn string) bool { return strings.HasPrefix(fn, modulePrefix+"mpi.") },
	"cpu.apps_frac":      func(fn string) bool { return strings.HasPrefix(fn, modulePrefix+"apps/") },
	"cpu.ml_frac":        func(fn string) bool { return strings.HasPrefix(fn, modulePrefix+"ml.") },
	"cpu.classify_frac":  func(fn string) bool { return strings.HasPrefix(fn, modulePrefix+"classify.") },
	"cpu.allreduce_frac": func(fn string) bool { return fn == modulePrefix+"mpi.(*Rank).Allreduce" },
	"cpu.callers_frac":   func(fn string) bool { return fn == "runtime.Callers" },
	"cpu.sched_frac": func(fn string) bool {
		switch fn {
		case "runtime.selectgo", "runtime.lock2", "runtime.unlock2", "runtime.chansend", "runtime.chanrecv":
			return true
		}
		return false
	},
	"cpu.gc_frac": func(fn string) bool {
		switch fn {
		case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot", "runtime.scanobject":
			return true
		}
		return strings.HasPrefix(fn, "runtime.gc")
	},
}

// cpuShares is each category's share of all samples in the profile.
func cpuShares(samples []cpuSample) map[string]float64 {
	out := map[string]float64{}
	total := int64(0)
	hits := map[string]int64{}
	for _, s := range samples {
		total += s.Count
		for name, match := range cpuCategories {
			for _, fn := range s.Funcs {
				if match(fn) {
					hits[name] += s.Count
					break
				}
			}
		}
	}
	out["cpu.samples"] = float64(total)
	for name := range cpuCategories {
		if total > 0 {
			out[name] = float64(hits[name]) / float64(total)
		} else {
			out[name] = 0
		}
	}
	return out
}
