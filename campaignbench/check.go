package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"github.com/fastfit/fastfit/internal/core"
)

// pointKey names a point by rank, call site ("func file:line"),
// collective type and invocation. It leaves out code addresses, which
// differ between builds.
func pointKey(p core.Point) string {
	return fmt.Sprintf("%d|%s|%v|%d", p.Rank, p.SiteName, p.Type, p.Invocation)
}

// legReference is the committed record of one leg of one campaign: its
// pruning accounting and the dominant outcome of every measured point.
type legReference struct {
	App           string            `json:"app"`
	TotalPoints   int               `json:"total_points"`
	AfterSemantic int               `json:"after_semantic"`
	AfterContext  int               `json:"after_context"`
	Dominant      map[string]string `json:"dominant"`
}

// reference holds, per workload and campaign seed, the legs of the
// campaign the benchmark ran when it wrote the file.
type reference struct {
	Size      string                               `json:"size"`
	Workloads map[string]map[string][]legReference `json:"workloads"`
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("parsing reference %s: %w", path, err)
	}
	return &ref, nil
}

func (r *reference) save(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// referenceOf records a finished campaign.
func referenceOf(cr *campaignRun) []legReference {
	var out []legReference
	for _, l := range cr.Legs {
		lr := legReference{
			App:           l.App.Name(),
			TotalPoints:   l.Res.TotalPoints,
			AfterSemantic: l.Res.AfterSemantic,
			AfterContext:  l.Res.AfterContext,
			Dominant:      map[string]string{},
		}
		for _, pr := range l.Res.Measured {
			lr.Dominant[pointKey(pr.Point)] = pr.MajorityOutcome().String()
		}
		out = append(out, lr)
	}
	return out
}

// agreement counts the measured points whose dominant outcome matches.
type agreement struct {
	Agree, Measured int
}

func (a agreement) frac() float64 {
	if a.Measured == 0 {
		return 1
	}
	return float64(a.Agree) / float64(a.Measured)
}

// minAgree is the share of measured points below which a campaign's
// outcomes count as wrong rather than as the run-to-run outcome drift the
// wall-clock deadlock fallback causes under load. Drift above it is
// reported through outcome_agree.
const minAgree = 0.75

// checkCampaign verifies one finished campaign: the structural invariants
// of every leg, then its plan and per-point dominant outcomes against the
// reference at the same workload and campaign seed. It returns the
// agreement tally and every violation found.
func checkCampaign(workload string, cr *campaignRun, ref *reference) (agreement, []string) {
	var bad []string
	for _, l := range cr.Legs {
		bad = append(bad, invariants(l)...)
	}
	var agr agreement
	legs, ok := ref.Workloads[workload][strconv.FormatInt(cr.Seed, 10)]
	if !ok {
		return agr, append(bad, fmt.Sprintf("no reference for %s at campaign seed %d", workload, cr.Seed))
	}
	if len(legs) != len(cr.Legs) {
		return agr, append(bad, fmt.Sprintf("%d legs, reference has %d", len(cr.Legs), len(legs)))
	}
	for i, l := range cr.Legs {
		want, res := legs[i], l.Res
		if want.App != l.App.Name() || want.TotalPoints != res.TotalPoints ||
			want.AfterSemantic != res.AfterSemantic || want.AfterContext != res.AfterContext {
			bad = append(bad, fmt.Sprintf("%s plan %d/%d/%d points, reference %s %d/%d/%d", l.App.Name(),
				res.TotalPoints, res.AfterSemantic, res.AfterContext,
				want.App, want.TotalPoints, want.AfterSemantic, want.AfterContext))
			continue
		}
		var legAgr agreement
		for _, pr := range res.Measured {
			legAgr.Measured++
			if want.Dominant[pointKey(pr.Point)] == pr.MajorityOutcome().String() {
				legAgr.Agree++
			}
		}
		if legAgr.frac() < minAgree {
			bad = append(bad, fmt.Sprintf("%s seed %d: dominant outcome matches the reference on %d of %d points",
				l.App.Name(), cr.Seed, legAgr.Agree, legAgr.Measured))
		}
		agr.Agree += legAgr.Agree
		agr.Measured += legAgr.Measured
	}
	return agr, bad
}

// invariants checks one leg's result against itself: every planned point
// is accounted for exactly once, outcome counts sum to the trials run, and
// the pruning accounting adds up to TotalReduction.
func invariants(l *leg) []string {
	var bad []string
	res := l.Res
	fail := func(format string, args ...any) {
		bad = append(bad, l.App.Name()+": "+fmt.Sprintf(format, args...))
	}
	planned := len(res.Measured) + len(res.Predicted) + len(res.SenseAdvised) + l.Quarantined
	if planned != res.AfterContext {
		fail("%d measured + %d predicted + %d advised + %d quarantined != %d planned points",
			len(res.Measured), len(res.Predicted), len(res.SenseAdvised), l.Quarantined, res.AfterContext)
	}
	seen := map[string]bool{}
	for _, p := range measuredAndPredicted(res) {
		k := pointKey(p)
		if seen[k] {
			fail("point %s accounted for twice", k)
		}
		seen[k] = true
	}
	trials := 0
	for _, pr := range res.Measured {
		c := pr.Counts
		if c.Total() != len(pr.Trials) {
			fail("point %s: outcome counts sum to %d, %d trials ran", pointKey(pr.Point), c.Total(), len(pr.Trials))
		}
		if len(pr.Trials) == 0 {
			fail("point %s measured with no trials", pointKey(pr.Point))
		}
		trials += len(pr.Trials)
	}
	bd := core.OutcomeBreakdown(res.Measured)
	if total := bd.Total(); total != trials {
		fail("campaign outcome breakdown sums to %d, %d trials ran", total, trials)
	}
	if res.Injected != len(res.Measured) || res.PredictedN != len(res.Predicted) {
		fail("injected %d / predicted %d disagree with %d measured / %d predicted points",
			res.Injected, res.PredictedN, len(res.Measured), len(res.Predicted))
	}
	if !(res.TotalPoints >= res.AfterSemantic && res.AfterSemantic >= res.AfterContext) {
		fail("pruning grew the space: %d -> %d -> %d", res.TotalPoints, res.AfterSemantic, res.AfterContext)
	}
	ratio := func(before, after int) float64 {
		if before == 0 {
			return 0
		}
		return 1 - float64(after)/float64(before)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"semantic reduction", res.SemanticReduction, ratio(res.TotalPoints, res.AfterSemantic)},
		{"context reduction", res.ContextReduction, ratio(res.AfterSemantic, res.AfterContext)},
		{"total reduction", res.TotalReduction, ratio(res.TotalPoints, res.Injected)},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			fail("%s %.6f, accounting gives %.6f", c.name, c.got, c.want)
		}
	}
	return bad
}

func measuredAndPredicted(res *core.CampaignResult) []core.Point {
	var out []core.Point
	for _, pr := range res.Measured {
		out = append(out, pr.Point)
	}
	for _, p := range res.Predicted {
		out = append(out, p.Point)
	}
	return out
}
