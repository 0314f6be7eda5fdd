package core

import (
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/ml"
)

// Prediction is a point whose sensitivity the model estimated instead of
// measuring.
type Prediction struct {
	Point Point
	Level int // predicted error-rate level in [0, Options.Levels)
}

// LearnResult is the outcome of the injection/learning feedback loop
// (paper §III-C and §IV-D).
type LearnResult struct {
	Measured []PointResult
	// MeasuredIdx gives each Measured entry's index in the shuffled
	// campaign order — the index its trial seeds derive from. The adaptive
	// refinement pass needs it to extend a point's trial sequence
	// deterministically after the loop has finished.
	MeasuredIdx []int
	Predicted   []Prediction
	Forest      *ml.Forest
	// VerifyAccuracy is the accuracy on the last verification batch, the
	// quantity compared against Options.AccuracyThreshold.
	VerifyAccuracy float64
	// Reduction is the fraction of points predicted rather than injected.
	Reduction float64
	// ExhaustedPoints reports that the loop ran out of injection points
	// before reaching the threshold (the paper's worst case, where the
	// method degrades to traditional fault injection).
	ExhaustedPoints bool
}

// LearnCampaignWith runs the ML-driven injection loop over the given
// points with a caller-supplied injection function: inject a batch, train
// the random forest on everything measured so far, verify its accuracy on
// the next batch before that batch joins the training set, and once the
// accuracy threshold is met predict the remaining points instead of
// injecting them. Campaigns run the same loop through the Supervisor; the
// threshold-sweep studies (paper Fig. 6) pass a cached lookup here so one
// physical injection campaign can be replayed under many accuracy
// thresholds.
func (e *Engine) LearnCampaignWith(points []Point, inject func(Point, int) PointResult) LearnResult {
	completed, total := 0, len(points)
	res, _ := e.learnCampaignBatched(points, func(ps []Point, idxs []int) []*PointResult {
		out := make([]*PointResult, len(ps))
		for i := range ps {
			e.emit(PointStarted{Index: idxs[i], Point: ps[i]})
			pr := inject(ps[i], idxs[i])
			out[i] = &pr
			completed++
			e.emitSettled(idxs[i], pr, false)
			e.emit(PointCompleted{Index: idxs[i], Result: pr, Completed: completed, Total: total})
		}
		return out
	})
	return res
}

// batchInjector injects one batch of points for the learning loop. idxs are
// the points' positions in the shuffled campaign order (each trial's seed
// derives from that index, so replaying the same order reproduces the same
// results bit for bit). A nil entry marks a point the harness could not
// measure (a supervisor's quarantined poison point); returning a nil slice
// aborts the loop (cancellation).
type batchInjector func(points []Point, idxs []int) []*PointResult

// learnCampaignBatched is the batched core of the injection/learning
// feedback loop. The second return reports whether the injector aborted the
// loop; an aborted result carries the measurements so far and no
// predictions (an immature model must not fabricate sensitivity levels for
// a campaign that will resume later).
func (e *Engine) learnCampaignBatched(points []Point, inject batchInjector) (LearnResult, bool) {
	opts := e.opts
	pts := append([]Point(nil), points...)
	rng := newRand(opts.Seed*31 + 7)
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	e.emit(PhaseChanged{Phase: CampaignLearning, Points: len(pts)})

	var res LearnResult
	var forest *ml.Forest
	aborted := false
	i := 0
	for i < len(pts) {
		end := i + opts.ML.Batch
		if end > len(pts) {
			end = len(pts)
		}
		idxs := make([]int, 0, end-i)
		for j := i; j < end; j++ {
			idxs = append(idxs, j)
		}
		injected := inject(pts[i:end], idxs)
		if injected == nil {
			aborted = true
			break
		}
		batch := make([]PointResult, 0, len(injected))
		batchIdxs := make([]int, 0, len(injected))
		for j, pr := range injected {
			if pr != nil {
				batch = append(batch, *pr)
				batchIdxs = append(batchIdxs, idxs[j])
			}
		}

		// Verification: how well does the current model predict the batch
		// it has not seen?
		if forest != nil && len(res.Measured) >= opts.ML.MinTrain && len(batch) > 0 {
			correct := 0
			for _, pr := range batch {
				pred := forest.Predict(pr.Point.FeatureVector())
				if pred == classify.RateLevel(pr.ErrorRate(), opts.Levels) {
					correct++
				}
			}
			res.VerifyAccuracy = float64(correct) / float64(len(batch))
			e.emit(BatchVerified{
				BatchSize: len(batch),
				Measured:  len(res.Measured),
				Accuracy:  res.VerifyAccuracy,
				Threshold: opts.AccuracyThreshold,
				Met:       res.VerifyAccuracy >= opts.AccuracyThreshold,
			})
			if res.VerifyAccuracy >= opts.AccuracyThreshold {
				res.Measured = append(res.Measured, batch...)
				res.MeasuredIdx = append(res.MeasuredIdx, batchIdxs...)
				i = end
				break
			}
		}

		res.Measured = append(res.Measured, batch...)
		res.MeasuredIdx = append(res.MeasuredIdx, batchIdxs...)
		i = end
		if len(res.Measured) >= opts.ML.MinTrain {
			forest = e.trainLevelForest(res.Measured)
		}
	}

	res.Forest = forest
	if aborted {
		return res, true
	}
	if i >= len(pts) {
		res.ExhaustedPoints = res.VerifyAccuracy < opts.AccuracyThreshold
	}
	if i < len(pts) {
		e.emit(PhaseChanged{Phase: CampaignPredicting, Points: len(pts) - i})
	}
	// Predict whatever remains uninjected.
	for _, p := range pts[i:] {
		level := 0
		if forest != nil {
			level = forest.Predict(p.FeatureVector())
		}
		res.Predicted = append(res.Predicted, Prediction{Point: p, Level: level})
	}
	if len(pts) > 0 {
		res.Reduction = float64(len(res.Predicted)) / float64(len(pts))
	}
	return res, false
}

// trainLevelForest fits the error-rate-level forest on measured results.
func (e *Engine) trainLevelForest(measured []PointResult) *ml.Forest {
	ds := BuildLevelDataset(measured, e.opts.Levels)
	return ml.TrainForest(ds, ml.ForestConfig{
		Trees:    e.opts.ForestTrees,
		MaxDepth: e.opts.ForestDepth,
		Seed:     e.opts.Seed * 17,
	})
}

// BuildLevelDataset converts measured points into an ML dataset labelled
// with quantised error-rate levels.
func BuildLevelDataset(measured []PointResult, levels int) *ml.Dataset {
	ds := &ml.Dataset{Features: FeatureNames, Classes: levels}
	for _, pr := range measured {
		ds.X = append(ds.X, pr.Point.FeatureVector())
		ds.Y = append(ds.Y, classify.RateLevel(pr.ErrorRate(), levels))
	}
	return ds
}

// BuildTypeDataset converts measured points into an ML dataset labelled
// with each point's majority outcome type (for the paper's error-type
// prediction, Fig. 12).
func BuildTypeDataset(measured []PointResult) *ml.Dataset {
	ds := &ml.Dataset{Features: FeatureNames, Classes: int(classify.NumOutcomes)}
	for _, pr := range measured {
		ds.X = append(ds.X, pr.Point.FeatureVector())
		ds.Y = append(ds.Y, int(pr.MajorityOutcome()))
	}
	return ds
}

// BuildExpandedLevelDataset uses the Table IV indicator-expanded features.
func BuildExpandedLevelDataset(measured []PointResult, levels int) *ml.Dataset {
	ds := &ml.Dataset{Features: ExpandedFeatureNames, Classes: levels}
	for _, pr := range measured {
		ds.X = append(ds.X, pr.Point.ExpandedFeatureVector())
		ds.Y = append(ds.Y, classify.RateLevel(pr.ErrorRate(), levels))
	}
	return ds
}
