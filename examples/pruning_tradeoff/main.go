// Pruning trade-off: reproduce the paper's Fig. 6 — how the ML prediction-
// accuracy threshold trades against the number of fault-injection points
// the model eliminates. One physical campaign is measured, then replayed
// under a sweep of thresholds.
//
//	go run ./examples/pruning_tradeoff
package main

import (
	"fmt"
	"log"
	"strings"

	"github.com/fastfit/fastfit"
)

func main() {
	app, err := fastfit.LookupApp("minimd")
	if err != nil {
		log.Fatal(err)
	}
	cfg := app.DefaultConfig()
	cfg.Ranks = 8

	// Measure every pruned point once.
	base := fastfit.DefaultOptions()
	base.TrialsPerPoint = 20
	base.ML.Pruning = false
	engine := fastfit.New(app, cfg, base)
	measured, err := engine.RunCampaign()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured %d points (%d tests each)\n\n", measured.Injected, base.TrialsPerPoint)

	// Cache for replay.
	type key struct {
		rank int
		site uint64
		inv  int
	}
	cache := map[key]fastfit.PointResult{}
	points := make([]fastfit.Point, 0, len(measured.Measured))
	for _, pr := range measured.Measured {
		cache[key{pr.Point.Rank, pr.Point.Site, pr.Point.Invocation}] = pr
		points = append(points, pr.Point)
	}
	lookup := func(p fastfit.Point, _ int) fastfit.PointResult {
		return cache[key{p.Rank, p.Site, p.Invocation}]
	}

	fmt.Println("accuracy threshold vs points eliminated (paper Fig. 6):")
	for th := 0.45; th <= 0.751; th += 0.05 {
		opts := base
		opts.ML.Pruning = true
		opts.AccuracyThreshold = th
		e := fastfit.New(app, cfg, opts)
		lr := e.LearnCampaignWith(points, lookup)
		bars := int(lr.Reduction * 40)
		fmt.Printf("  %2.0f%%  ->  %5.1f%% eliminated  %s\n",
			100*th, 100*lr.Reduction, strings.Repeat("#", bars))
	}
	fmt.Println("\nthe paper picks 65% as the balance between model quality and savings")
}
