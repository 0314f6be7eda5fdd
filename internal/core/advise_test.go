package core

import (
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
)

func adviceFixture() []PointResult {
	mk := func(site uint64, name string, typ mpi.CollType, outcomes []classify.Outcome) PointResult {
		pr := PointResult{Point: Point{Site: site, SiteName: name, Type: typ}}
		for _, o := range outcomes {
			pr.Trials = append(pr.Trials, TrialResult{Target: fault.TargetSendBuf, Outcome: o})
			pr.Counts.Add(o)
		}
		return pr
	}
	s := classify.Success
	a := classify.AppDetected
	g := classify.SegFault
	return []PointResult{
		// benign: 10% errors
		mk(0x1, "benign_ar", mpi.CollAllreduce, []classify.Outcome{s, s, s, s, s, s, s, s, s, a}),
		// detected-but-frequent: 50% errors, all app-detected
		mk(0x2, "errcheck_ar", mpi.CollAllreduce, []classify.Outcome{s, s, s, s, s, a, a, a, a, a}),
		// severe: 100% errors, mostly crashes
		mk(0x3, "barrier", mpi.CollBarrier, []classify.Outcome{g, g, g, g, g, g, g, g, a, a}),
	}
}

func TestAdviseClassification(t *testing.T) {
	advice := Advise(adviceFixture(), AdviceThresholds{})
	if len(advice) != 3 {
		t.Fatalf("advice entries = %d", len(advice))
	}
	byName := map[string]Advice{}
	for _, a := range advice {
		byName[a.SiteName] = a
	}
	if got := byName["benign_ar"].Action; got != ActionNone {
		t.Errorf("benign site action = %v", got)
	}
	if got := byName["errcheck_ar"].Action; got != ActionDetect {
		t.Errorf("detected site action = %v", got)
	}
	if got := byName["barrier"].Action; got != ActionProtect {
		t.Errorf("severe site action = %v", got)
	}
	// Most severe first.
	if advice[0].SiteName != "barrier" {
		t.Errorf("ordering: %v first", advice[0].SiteName)
	}
	for _, a := range advice {
		if a.Rationale == "" {
			t.Errorf("%s has no rationale", a.SiteName)
		}
	}
}

func TestAdviseThresholdTuning(t *testing.T) {
	// With a sky-high error threshold nothing needs attention.
	advice := Advise(adviceFixture(), AdviceThresholds{ErrorRate: 1.01, SevereRate: 1.01})
	for _, a := range advice {
		if a.Action != ActionNone {
			t.Errorf("%s action = %v with max thresholds", a.SiteName, a.Action)
		}
	}
	// With a zero-ish severe threshold, the detected site escalates.
	advice = Advise(adviceFixture(), AdviceThresholds{ErrorRate: 0.2, SevereRate: 0.0001})
	byName := map[string]Advice{}
	for _, a := range advice {
		byName[a.SiteName] = a
	}
	if byName["errcheck_ar"].Action != ActionDetect {
		// no severe outcomes at all: still detect-only
		t.Errorf("errcheck action = %v", byName["errcheck_ar"].Action)
	}
}

func TestRenderAdvice(t *testing.T) {
	out := RenderAdvice(Advise(adviceFixture(), AdviceThresholds{}))
	for _, want := range []string{"protect", "detect", "none", "MPI_Barrier", "barrier"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered advice missing %q:\n%s", want, out)
		}
	}
}

func TestAdviseEmpty(t *testing.T) {
	if got := Advise(nil, AdviceThresholds{}); len(got) != 0 {
		t.Fatalf("empty input should give no advice: %v", got)
	}
}

func TestActionStrings(t *testing.T) {
	if ActionNone.String() != "none" || ActionDetect.String() != "detect" || ActionProtect.String() != "protect" {
		t.Error("action names wrong")
	}
	if Action(9).String() != "unknown" {
		t.Error("unknown action name")
	}
}
