package core

import (
	"context"
	"fmt"
	"strings"
)

// CampaignResult is the complete outcome of a FastFIT campaign on one
// application: the pruning accounting of the paper's Table III plus the
// per-point injection results feeding every sensitivity figure.
type CampaignResult struct {
	AppName string
	Ranks   int
	// Policy is the fault policy the campaign injected under. It is part of
	// the transferable feature schema: outcome tallies are only comparable
	// across campaigns that corrupted the same thing.
	Policy FaultPolicy

	// Point accounting through the pruning pipeline.
	TotalPoints   int // all (rank, site, invocation) triples
	AfterSemantic int
	AfterContext  int
	Injected      int // points actually injected
	PredictedN    int // points predicted by the model

	// Reduction ratios as the paper reports them: each technique's
	// reduction is relative to the space it received (Table III's MPI,
	// App and ML columns), and Total is relative to the full space.
	SemanticReduction float64
	ContextReduction  float64
	MLReduction       float64
	TotalReduction    float64

	Measured       []PointResult
	Predicted      []Prediction
	VerifyAccuracy float64
	Learn          *LearnResult

	// SenseAdvised holds the points answered from the cross-campaign model
	// with zero trials (Options.Sense). Empty on campaigns that never
	// served a prediction, so never-sensed and gate-disabled runs persist
	// byte-identically.
	SenseAdvised []SenseAdvice
}

// campaignPlan is the profiled-and-pruned injection space of one campaign:
// the points left to inject plus the pruning accounting already filled into
// a fresh CampaignResult. Every Supervisor run starts from a plan, so an
// interrupted campaign resumes over exactly the point list an
// uninterrupted run would have used.
type campaignPlan struct {
	res    *CampaignResult
	points []Point
}

// planCampaign profiles the application and applies the semantic and
// context pruning passes, returning the surviving points with accounting.
func (e *Engine) planCampaign() (*campaignPlan, error) {
	e.emit(PhaseChanged{Phase: CampaignProfiling})
	prof, err := e.Profile()
	if err != nil {
		return nil, err
	}
	points := enumeratePoints(prof)
	res := &CampaignResult{
		AppName:     e.app.Name(),
		Ranks:       e.cfg.Ranks,
		Policy:      e.opts.Policy,
		TotalPoints: len(points),
	}

	e.emit(PhaseChanged{Phase: CampaignPruning, Points: len(points)})
	e.logf("profiled %s: %d injection points", e.app.Name(), len(points))
	if e.opts.Pruning.Semantic {
		points, res.SemanticReduction = SemanticPrune(prof, points)
		e.logf("semantic pruning: %d points (%.1f%% eliminated)", len(points), 100*res.SemanticReduction)
	}
	res.AfterSemantic = len(points)

	if e.opts.Pruning.Context {
		points, res.ContextReduction = ContextPrune(points)
		e.logf("context pruning: %d points (%.1f%% eliminated)", len(points), 100*res.ContextReduction)
	}
	res.AfterContext = len(points)

	if adv := e.opts.Sense.Advisor; adv != nil {
		before := adv.Stats()
		kept, advised := e.senseFilter(points)
		if len(advised) > 0 {
			points = kept
			res.SenseAdvised = advised
			after := adv.Stats()
			e.emit(SenseStats{
				Served:    len(advised),
				Fallback:  after.Fallback - before.Fallback,
				CacheHits: after.CacheHits - before.CacheHits,
			})
			e.logf("sense: %d points answered zero-trial, %d fall back to injection", len(advised), len(points))
		}
	}
	return &campaignPlan{res: res, points: points}, nil
}

// finish fills the accounting fields that depend on injection results.
func (p *campaignPlan) finish() *CampaignResult {
	res := p.res
	res.Injected = len(res.Measured)
	res.PredictedN = len(res.Predicted)
	if res.TotalPoints > 0 {
		res.TotalReduction = 1 - float64(res.Injected)/float64(res.TotalPoints)
	}
	return res
}

// RunCampaign executes the full FastFIT pipeline — profile, prune,
// inject, learn — as a Workers: 1 supervised run: points are injected one
// at a time in campaign order (parallelism lives inside each point), the
// serial reference that point-parallel, sharded and resumed campaigns all
// reproduce. A point the harness quarantines is an error naming it; for a
// checkpointed, cancellable, point-parallel campaign or a
// complete-with-skips report, use a Supervisor directly.
func (e *Engine) RunCampaign() (*CampaignResult, error) {
	sup, err := NewSupervisor(e, SupervisorOptions{Workers: 1}).Run(context.Background())
	if err != nil {
		return nil, err
	}
	if err := quarantineError(sup.Quarantined); err != nil {
		return nil, err
	}
	return sup.CampaignResult, nil
}

// quarantineError names every quarantined point, or returns nil if none.
func quarantineError(qs []QuarantinedPoint) error {
	if len(qs) == 0 {
		return nil
	}
	names := make([]string, len(qs))
	for i, q := range qs {
		names[i] = fmt.Sprintf("point %d (%s): %s", q.Index, q.Point.String(), q.Err)
	}
	return fmt.Errorf("campaign quarantined %d point(s): %s", len(names), strings.Join(names, "; "))
}

// Summary renders the campaign's pruning accounting as a one-line record
// in the shape of a Table III row.
func (r *CampaignResult) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: points %d", r.AppName, r.TotalPoints)
	fmt.Fprintf(&sb, " -> semantic %d (%.2f%%)", r.AfterSemantic, 100*r.SemanticReduction)
	fmt.Fprintf(&sb, " -> context %d (%.2f%%)", r.AfterContext, 100*r.ContextReduction)
	if len(r.SenseAdvised) > 0 {
		fmt.Fprintf(&sb, " -> sense advised %d", len(r.SenseAdvised))
	}
	if r.PredictedN > 0 || r.MLReduction > 0 {
		fmt.Fprintf(&sb, " -> ML injected %d predicted %d (%.2f%%)", r.Injected, r.PredictedN, 100*r.MLReduction)
	}
	fmt.Fprintf(&sb, "; total reduction %.2f%%", 100*r.TotalReduction)
	return sb.String()
}
