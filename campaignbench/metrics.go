package main

// metricDef names one reported metric. Moves and Where record, for a
// per-layer metric, the end-to-end metric it should move and the workloads
// where its layer does the most work; README.md renders the same map.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
	Where  string
}

// endToEnd are the metrics a user of a campaign sees, measured with tracing
// off. Harness failures are not a metric here: every healthy run has none,
// so they are reported as the result line's attempted/failed counts.
var endToEnd = []metricDef{
	{Name: "campaign_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "outcome_agree", Unit: "ratio", Better: "higher"},
}

const (
	allWL   = "all three"
	mdWL    = "minimd-ml"
	npbWL   = "npb-params"
	distWL  = "is-dist-adaptive"
	setupE  = "setup_s"
	campE   = "campaign_s"
	trialE  = "campaign_s, cpu_s"
	forkE   = "campaign_s, rss_peak_mb"
	trialMS = "trial.ms_p50"
)

// outcomeSlugs are the six outcomes of the paper's Table I as metric-name
// suffixes, in classify.Outcome order.
var outcomeSlugs = []string{"success", "app_detected", "mpi_err", "seg_fault", "wrong_ans", "inf_loop"}

// goldenApps are the applications whose fault-free run time is probed.
var goldenApps = []string{"is", "ft", "lu", "minimd"}

// perLayer are the metrics of the traced run, all derived from its trace
// file and CPU profile.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"core.profile_s", "s", "lower", setupE, allWL},
		{"core.prune_s", "s", "lower", setupE, allWL},
		{"core.phase_injecting_s", "s", "lower", campE, npbWL + ", " + distWL},
		{"core.phase_learning_s", "s", "lower", campE, mdWL},
		{"core.phase_refining_s", "s", "lower", campE, distWL},
		{"core.point_ms_p50", "ms", "lower", campE, allWL},
		{"core.point_ms_p90", "ms", "lower", campE, allWL},
		{"core.point_samples", "count", "higher", campE, allWL},
		{"core.trials", "count", "lower", campE, allWL},
		{"core.trials_per_s", "1/s", "higher", campE, allWL},
		{"core.points_total", "count", "lower", campE, allWL},
		{"core.points_after_semantic", "count", "lower", campE, allWL},
		{"core.points_after_context", "count", "lower", campE, allWL},
		{"fork.forked", "count", "higher", forkE, distWL + " most, " + mdWL + " least"},
		{"fork.replayed", "count", "lower", forkE, distWL + " most, " + mdWL + " least"},
		{"fork.snapshots", "count", "lower", forkE, distWL + " most, " + mdWL + " least"},
		{"fork.hit_ratio", "ratio", "higher", forkE, distWL + " most, " + mdWL + " least"},
		{"fork.first_trial_ms_p50", "ms", "lower", forkE, distWL + " most, " + mdWL + " least"},
		{"trial.samples", "count", "higher", trialE, allWL},
		{"trial.ms_p50", "ms", "lower", trialE, allWL},
		{"trial.ms_p90", "ms", "lower", trialE, allWL},
		{"trial.ms_p99", "ms", "lower", trialE, allWL},
	}
	for _, o := range outcomeSlugs {
		m = append(m, metricDef{"trial.ms_p50." + o, "ms", "lower", trialE, npbWL + " most, " + mdWL + " least"})
	}
	for _, o := range outcomeSlugs {
		m = append(m, metricDef{"trial.samples." + o, "count", "higher", trialE, npbWL + " most, " + mdWL + " least"})
	}
	m = append(m,
		metricDef{"trial.allocs", "count", "lower", trialE, allWL},
		metricDef{"trial.kb", "KB", "lower", trialE, allWL},
		metricDef{"mpi.allreduce_us", "us", "lower", campE, mdWL + " most, " + npbWL + " least"},
		metricDef{"mpi.bcast_us", "us", "lower", campE, allWL},
		metricDef{"mpi.alltoall_us", "us", "lower", campE, npbWL + " most, " + mdWL + " least"},
		metricDef{"mpi.barrier_us", "us", "lower", campE, allWL},
		metricDef{"mpi.p2p_ring_us", "us", "lower", campE, npbWL + " most, " + mdWL + " least"},
		metricDef{"mpi.spawn_us", "us", "lower", campE, allWL},
	)
	for _, a := range goldenApps {
		m = append(m, metricDef{"mpi.golden_run_ms." + a, "ms", "lower", setupE + ", " + campE, "workloads running " + a})
	}
	m = append(m,
		metricDef{"classify.digest_ns", "ns", "lower", trialMS, allWL},
		metricDef{"ml.learn_self_s", "s", "lower", campE, mdWL},
		metricDef{"ml.verify_rounds", "count", "lower", campE, mdWL},
		metricDef{"ml.verify_accuracy", "ratio", "higher", campE, mdWL},
		metricDef{"adaptive.settled_points", "count", "higher", campE, distWL},
		metricDef{"adaptive.refined_points", "count", "lower", campE, distWL},
		metricDef{"journal.bytes", "bytes", "lower", campE, npbWL},
		metricDef{"journal.records", "count", "lower", campE, npbWL},
		metricDef{"journal.resume_s", "s", "lower", campE, npbWL},
		metricDef{"dist.leases", "count", "lower", campE, distWL},
		metricDef{"dist.leases_expired", "count", "lower", campE, distWL},
		metricDef{"dist.merge_s", "s", "lower", campE, distWL},
		metricDef{"dist.wal_bytes", "bytes", "lower", campE, distWL},
		metricDef{"dist.recover_s", "s", "lower", campE, distWL},
		metricDef{"cpu.samples", "count", "higher", "cpu_s", allWL},
		metricDef{"cpu.mpi_frac", "ratio", "lower", trialE, mdWL + " most"},
		metricDef{"cpu.allreduce_frac", "ratio", "lower", trialE, mdWL + " most, " + npbWL + " least"},
		metricDef{"cpu.apps_frac", "ratio", "higher", trialE, allWL},
		metricDef{"cpu.callers_frac", "ratio", "lower", trialE, mdWL + " most"},
		metricDef{"cpu.sched_frac", "ratio", "lower", trialE, mdWL + " most"},
		metricDef{"cpu.gc_frac", "ratio", "lower", trialE + ", rss_peak_mb", allWL},
		metricDef{"cpu.ml_frac", "ratio", "lower", campE, mdWL},
		metricDef{"cpu.classify_frac", "ratio", "lower", trialMS, allWL},
		metricDef{"trace.overhead_frac", "ratio", "lower", "none (tracing cost)", allWL},
	)
	return m
}()
