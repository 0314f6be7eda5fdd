package core

import (
	"context"
	"fmt"
)

// Distributed-execution hooks. The distributed campaign service
// (internal/dist) shards a campaign by checkpoint index range: a
// coordinator leases index ranges to worker shards, each shard runs the
// supervisor over its leased range (RunRange) and streams journal records
// back, and a merger replays the collected records through the ordinary
// supervisor path to assemble a result byte-identical to a single-process
// run. Everything here leans on the campaign's core determinism contract:
// a point's phase-1 result is a pure function of (campaign fingerprint,
// injection index), so any partition of the index space across processes
// measures exactly what a single process would have measured.

// PlanInfo identifies a campaign's planned injection space without running
// a single trial: the checkpoint fingerprint every shard journal is keyed
// by and the pruned point count the coordinator leases ranges over.
type PlanInfo struct {
	Fingerprint string
	Points      int
}

// PlanInfo profiles (once — the profile is cached) and prunes the campaign,
// returning its fingerprint and index-space size. The distributed
// coordinator calls it to open a campaign; workers call it implicitly
// through RunRange and cross-check the fingerprint against their lease.
func (e *Engine) PlanInfo() (PlanInfo, error) {
	plan, err := e.planCampaign()
	if err != nil {
		return PlanInfo{}, err
	}
	return PlanInfo{
		Fingerprint: CampaignFingerprint(e.app.Name(), e.cfg, e.opts, plan.points),
		Points:      len(plan.points),
	}, nil
}

// MLFrontier replays the ML learn loop against the campaign results known
// so far and reports how much of the shuffled campaign order the loop
// needs. have returns the phase-1 result for an index: (nil, true) for a
// point a shard quarantined, (nil, false) for an index not measured yet.
// The replay is a pure function of (Options.Seed, the results), so the
// coordinator's lease frontier and the merger always agree with what a
// single-process run would have injected.
//
// needed is the prefix length the loop cannot finish without: indexes
// [0, needed) must be measured (or quarantined). finished reports that the
// loop's stopping decision is fully determined by the available results;
// needed is then exactly the measured prefix, and any records beyond it
// are speculative overshoot the merger discards.
//
// Campaigns without ML pruning need the whole space: needed is the full
// point count and finished is immediately true.
//
// The replay emits learn-loop events (PhaseChanged, BatchVerified) and
// trains throwaway forests; callers run it on an engine with no observer.
func (e *Engine) MLFrontier(have func(idx int) (*PointResult, bool)) (needed int, finished bool, err error) {
	plan, err := e.planCampaign()
	if err != nil {
		return 0, false, err
	}
	if !e.opts.ML.Pruning {
		return len(plan.points), true, nil
	}
	frontier, missing := 0, false
	e.learnCampaignBatched(plan.points, func(ps []Point, idxs []int) []*PointResult {
		out := make([]*PointResult, len(ps))
		for i, idx := range idxs {
			pr, known := have(idx)
			if !known {
				missing = true
				frontier = idxs[len(idxs)-1] + 1
				return nil // abort the replay: the frontier batch is incomplete
			}
			out[i] = pr
		}
		if end := idxs[len(idxs)-1] + 1; end > frontier {
			frontier = end
		}
		return out
	})
	return frontier, !missing, nil
}

// RangeResult is the outcome of one shard's RunRange call.
type RangeResult struct {
	// Fingerprint is the campaign fingerprint the records are keyed by;
	// the worker cross-checks it against its lease before streaming.
	Fingerprint string
	// Total is the full campaign index space (the pruned point count).
	Total int
	// Records holds the points measured by this call, in index order.
	Records []PointRecord
	// Quarantined holds the poison points of this range, in index order.
	Quarantined []QuarantinedPoint
	// Cancelled reports the range stopped early on context cancellation.
	Cancelled bool
}

// RunRange executes the supervised campaign restricted to indexes [lo, hi)
// of the campaign's injection order — the pruned point list, or the
// seed-shuffled order when ML pruning is on (the order every trial seed
// keys off). It is the worker-shard half of the distributed service: the
// range's points go through the same worker pool, watchdogs and retries as
// a Run, each completed point is delivered to sink (when non-nil) in
// completion order as it lands, and the full set is returned in index
// order. skip marks indexes already measured elsewhere (a re-leased range
// resumes past its dead shard's acked records). A sink error aborts the
// run.
//
// No checkpoint journalling, refinement, learning or prediction happens
// here: those passes consume the whole campaign's phase-1 results, so they
// run once at the merge step (internal/dist), a Workers: 1 Run over the
// collected records, which is what keeps a sharded campaign byte-identical
// to a single-process one.
func (s *Supervisor) RunRange(ctx context.Context, lo, hi int, skip map[int]bool, sink func(PointRecord) error) (*RangeResult, error) {
	e := s.eng
	e.emitCampaignStarted()
	plan, err := s.planWithRetry(ctx)
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi > len(plan.points) || lo > hi {
		return nil, fmt.Errorf("range [%d,%d) outside campaign of %d points", lo, hi, len(plan.points))
	}
	points := plan.points
	if e.opts.ML.Pruning {
		points = shuffledPoints(e, plan.points)
	}
	todo := make([]int, 0, hi-lo)
	for idx := lo; idx < hi; idx++ {
		if !skip[idx] {
			todo = append(todo, idx)
		}
	}

	run := &supervisedRun{
		sup:     s,
		results: map[int]PointResult{},
		quar:    map[int]QuarantinedPoint{},
		base:    map[int]int{},
		total:   len(todo),
		sink:    sink,
	}
	e.emit(PhaseChanged{Phase: CampaignInjecting, Points: len(todo)})
	s.injectPoints(ctx, run, todo, func(idx int) Point { return points[idx] })

	if err := run.err(); err != nil {
		return nil, err
	}
	res := &RangeResult{
		Fingerprint: CampaignFingerprint(e.App().Name(), e.Config(), e.Options(), plan.points),
		Total:       len(plan.points),
		Cancelled:   ctx.Err() != nil,
	}
	var measured []PointResult
	for _, idx := range sortedIdxs(run.results) {
		pr := run.results[idx]
		res.Records = append(res.Records, PointRecord{Index: idx, Result: pr})
		measured = append(measured, pr)
	}
	for _, idx := range sortedIdxs(run.quar) {
		res.Quarantined = append(res.Quarantined, run.quar[idx])
	}
	e.emit(CampaignFinished{
		App:         e.App().Name(),
		Injected:    len(res.Records),
		Quarantined: len(res.Quarantined),
		Counts:      OutcomeBreakdown(measured),
		Cancelled:   res.Cancelled,
	})
	return res, nil
}
