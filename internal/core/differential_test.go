package core

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps/is"
	"github.com/fastfit/fastfit/internal/apps/minimd"
)

// The differential identity suite is the correctness contract of the
// buffer arena and the golden digest: with pooling enabled (the default)
// and disabled, every campaign path must emit byte-identical campaign JSON
// and JSONL event streams for the same seed. Any aliasing of pooled memory
// between trials, stale recycled state, or digest/full-comparison
// disagreement shows up here as a byte diff in an externally-consumed
// surface.

// diffCampaign is one deterministic campaign leg: its persisted JSON and
// its JSONL event stream.
type diffCampaign struct {
	json   []byte
	stream []byte
}

func diffTestOptions(seed int64) Options {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.TrialsPerPoint = 3
	opts.ML.Pruning = false
	opts.RunTimeout = 10 * time.Second
	return opts
}

// engineFunc builds a differential leg's engine for the given options.
type engineFunc func(t *testing.T, opts Options) *Engine

func diffTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	app := is.New()
	cfg := app.DefaultConfig()
	cfg.Ranks = 4
	cfg.Scale = 32
	cfg.Seed = opts.Seed
	return New(app, cfg, opts)
}

// minimdDiffEngine is the Allreduce-heavy leg: minimd at 8 ranks, whose
// Allreduce, Allgather, Bcast and Barrier calls all take the collective
// rendezvous on the pooled side.
func minimdDiffEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	app := minimd.New()
	cfg := app.DefaultConfig()
	cfg.Ranks = 8
	cfg.Scale = 8
	cfg.Iters = 4
	cfg.Seed = opts.Seed
	return New(app, cfg, opts)
}

// runDiffSerial runs one serial campaign (direct, ML or adaptive,
// depending on opts) and captures both output surfaces.
func runDiffSerial(t *testing.T, mk engineFunc, opts Options, pooled bool) diffCampaign {
	t.Helper()
	var stream bytes.Buffer
	jo := NewJSONLObserver(&stream)
	opts.DisablePooling = !pooled
	opts.Observer = jo
	res, err := mk(t, opts).RunCampaign()
	if err != nil {
		t.Fatalf("campaign (pooled=%t): %v", pooled, err)
	}
	if err := jo.Err(); err != nil {
		t.Fatal(err)
	}
	return diffCampaign{json: campaignJSONBytes(t, res), stream: stream.Bytes()}
}

// runDiffResumed interrupts a single-worker supervised campaign after two
// completed points and resumes it from the checkpoint. The cancelled leg's
// stream is timing-dependent (cancellation may land before or after the
// next PointStarted), so the deterministic surfaces are the resume leg's
// stream and the final campaign JSON.
func runDiffResumed(t *testing.T, mk engineFunc, opts Options, pooled bool) diffCampaign {
	t.Helper()
	opts.DisablePooling = !pooled
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "diff.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	intOpts := opts
	intOpts.Observer = ObserverFunc(func(ev Event) {
		if pc, ok := ev.(PointCompleted); ok && pc.Completed == 2 {
			cancel()
		}
	})
	first, err := NewSupervisor(mk(t, intOpts), SupervisorOptions{
		Workers:    1,
		Checkpoint: ckpt,
	}).Run(ctx)
	if err != nil {
		t.Fatalf("interrupted leg (pooled=%t): %v", pooled, err)
	}
	if !first.Cancelled {
		// The tiny campaign finished before the cancellation landed; the
		// resume below then replays a complete checkpoint, which is still
		// a valid (if shallower) identity check.
		t.Logf("campaign completed before cancellation (pooled=%t)", pooled)
	}

	var stream bytes.Buffer
	jo := NewJSONLObserver(&stream)
	resumeOpts := opts
	resumeOpts.Observer = jo
	res, err := ResumeCampaign(context.Background(), mk(t, resumeOpts), SupervisorOptions{
		Workers:    1,
		Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatalf("resume leg (pooled=%t): %v", pooled, err)
	}
	if err := jo.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Cancelled || len(res.Quarantined) != 0 {
		t.Fatalf("resume leg not clean (pooled=%t): %+v", pooled, res)
	}
	// CheckpointAppended events embed the absolute journal path, which is a
	// per-leg temp directory; redact it so the comparison sees behaviour,
	// not t.TempDir naming.
	redacted := bytes.ReplaceAll(stream.Bytes(), []byte(ckpt), []byte("CKPT"))
	return diffCampaign{json: campaignJSONBytes(t, res.CampaignResult), stream: redacted}
}

func compareDiff(t *testing.T, path string, pooled, unpooled diffCampaign) {
	t.Helper()
	if !bytes.Equal(pooled.json, unpooled.json) {
		t.Errorf("%s: campaign JSON diverges between pooled and unpooled engines\npooled:   %s\nunpooled: %s",
			path, pooled.json, unpooled.json)
	}
	if !bytes.Equal(pooled.stream, unpooled.stream) {
		t.Errorf("%s: JSONL event stream diverges between pooled and unpooled engines\npooled:\n%s\nunpooled:\n%s",
			path, pooled.stream, unpooled.stream)
	}
}

// TestDifferentialPooledIdentity sweeps 20 seeds across the direct, ML,
// adaptive and interrupt/resume campaign paths, requiring the pooled and
// unpooled engines to be byte-identical on every output surface. The
// unpooled engine is the reference runtime — no arena and no collective
// rendezvous — so the sweep also proves rendezvous≡message. Three legs:
// IS and minimd with data-buffer faults (corrupted contents, so the
// rendezvous stays on its fast path), and IS with all-parameter faults,
// whose count, op, root and comm faults drive it into fallback.
func TestDifferentialPooledIdentity(t *testing.T) {
	seeds := int64(20)
	if raceEnabled || testing.Short() {
		// The full 20-seed sweep is the uninstrumented CI step's job; under
		// the race detector (or -short) a 4-seed sweep keeps the signal.
		seeds = 4
	}
	legs := []struct {
		prefix string // subtest name prefix; the original IS leg has none
		mk     engineFunc
		policy FaultPolicy
	}{
		{"", diffTestEngine, PolicyDataBuffer},
		{"minimd/", minimdDiffEngine, PolicyDataBuffer},
		{"is-params/", diffTestEngine, PolicyAllParams},
	}
	for _, leg := range legs {
		for seed := int64(1); seed <= seeds; seed++ {
			leg, seed := leg, seed
			t.Run(fmt.Sprintf("%sseed=%d", leg.prefix, seed), func(t *testing.T) {
				t.Parallel()
				options := func() Options {
					opts := diffTestOptions(seed)
					opts.Policy = leg.policy
					return opts
				}

				t.Run("direct", func(t *testing.T) {
					opts := options()
					compareDiff(t, "direct", runDiffSerial(t, leg.mk, opts, true), runDiffSerial(t, leg.mk, opts, false))
				})
				t.Run("ml", func(t *testing.T) {
					opts := options()
					opts.ML.Pruning = true
					opts.ML.Batch = 2
					opts.ML.MinTrain = 4
					compareDiff(t, "ml", runDiffSerial(t, leg.mk, opts, true), runDiffSerial(t, leg.mk, opts, false))
				})
				t.Run("adaptive", func(t *testing.T) {
					opts := options()
					opts.Adaptive.Enabled = true
					opts.TrialsPerPoint = 12
					compareDiff(t, "adaptive", runDiffSerial(t, leg.mk, opts, true), runDiffSerial(t, leg.mk, opts, false))
				})
				t.Run("resumed", func(t *testing.T) {
					opts := options()
					compareDiff(t, "resumed", runDiffResumed(t, leg.mk, opts, true), runDiffResumed(t, leg.mk, opts, false))
				})
			})
		}
	}
}
