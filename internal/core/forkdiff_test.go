package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// The forked≡replayed differential suite is the correctness contract of
// fork-at-injection-site execution: with forking enabled (the default) and
// disabled (every trial replaying from t=0), every campaign path must emit
// byte-identical campaign JSON and JSONL event streams for the same seed.
// The single SnapshotStats line is the one legitimate difference — it is
// the accounting of which path trials took — so the comparison strips it
// from both streams (it occupies the same sequence number in each, keeping
// the rest of the numbering aligned) and instead asserts its content:
// the forked leg must actually have forked, the replayed leg must not.

// stripSnapshotStats removes the SnapshotStats line from a JSONL stream and
// returns it separately (nil when the stream has none, e.g. an aborted leg).
func stripSnapshotStats(t *testing.T, stream []byte) (rest, statsLine []byte) {
	t.Helper()
	var kept [][]byte
	for _, line := range bytes.Split(stream, []byte("\n")) {
		if bytes.Contains(line, []byte(`"event":"SnapshotStats"`)) {
			if statsLine != nil {
				t.Fatalf("stream carries more than one SnapshotStats line:\n%s", stream)
			}
			statsLine = line
			continue
		}
		kept = append(kept, line)
	}
	return bytes.Join(kept, []byte("\n")), statsLine
}

// snapshotStatsOf decodes the stripped SnapshotStats line.
func snapshotStatsOf(t *testing.T, line []byte) SnapshotStats {
	t.Helper()
	var env struct {
		Data SnapshotStats `json:"data"`
	}
	if err := json.Unmarshal(line, &env); err != nil {
		t.Fatalf("decoding SnapshotStats line %q: %v", line, err)
	}
	return env.Data
}

// compareForkDiff requires the forked and replayed legs to agree on every
// byte outside the SnapshotStats accounting, and the accounting itself to
// prove each leg took its intended path. requireForked is false for the
// resume path, where the interrupted leg may have completed the whole
// campaign before the cancellation landed (the resume then injects nothing).
func compareForkDiff(t *testing.T, path string, forked, replayed diffCampaign, requireForked bool) {
	t.Helper()
	if !bytes.Equal(forked.json, replayed.json) {
		t.Errorf("%s: campaign JSON diverges between forked and replayed engines\nforked:   %s\nreplayed: %s",
			path, forked.json, replayed.json)
	}
	fstream, fstats := stripSnapshotStats(t, forked.stream)
	rstream, rstats := stripSnapshotStats(t, replayed.stream)
	if !bytes.Equal(fstream, rstream) {
		t.Errorf("%s: JSONL event stream diverges between forked and replayed engines\nforked:\n%s\nreplayed:\n%s",
			path, fstream, rstream)
	}
	fs, rs := snapshotStatsOf(t, fstats), snapshotStatsOf(t, rstats)
	if fs.Replayed != 0 {
		t.Errorf("%s: forked leg fell back to full replay %d times: %+v", path, fs.Replayed, fs)
	}
	if requireForked && (fs.Forked == 0 || fs.Snapshots == 0) {
		t.Errorf("%s: forked leg never forked: %+v", path, fs)
	}
	if rs.Forked != 0 || rs.Snapshots != 0 {
		t.Errorf("%s: replayed leg forked anyway: %+v", path, rs)
	}
	if fs.Forked != rs.Replayed {
		t.Errorf("%s: legs ran different trial totals: forked leg %d, replayed leg %d", path, fs.Forked, rs.Replayed)
	}
}

// TestForkFallbackNetworkPlan pins the fallback path: a campaign with a
// standing topology and fault plan must replay every trial from t=0 (the
// plan perturbs delivery before the injection site, so prefixes are
// unsnapshottable) while still completing normally.
func TestForkFallbackNetworkPlan(t *testing.T) {
	opts := netDiffOptions(t, 1)
	eng := netDiffEngine(t, opts, "baseline")
	res, err := eng.RunCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measured) == 0 {
		t.Fatal("networked campaign measured nothing; the fallback was not exercised")
	}
	st := eng.SnapshotStats()
	if st.Forked != 0 || st.Snapshots != 0 {
		t.Fatalf("networked campaign forked despite the fault plan: %+v", st)
	}
	if st.Replayed == 0 {
		t.Fatalf("networked campaign ran no full-replay trials: %+v", st)
	}
}

// TestForkCacheCrossFingerprint pins cache isolation: engines whose
// workload fingerprints differ (here, by config seed) must resolve distinct
// snapshot stores, so a snapshot cut for one configuration can never serve
// trials of another.
func TestForkCacheCrossFingerprint(t *testing.T) {
	// Earlier tests leave the process-wide cache near forkCacheCap, where
	// inserting one more fingerprint evicts an arbitrary entry — possibly
	// one of this test's own. Start from an empty cache so the sharing
	// assertions below are deterministic.
	forkCache.Lock()
	forkCache.m = map[string]*forkState{}
	forkCache.Unlock()

	optsA, optsB := diffTestOptions(101), diffTestOptions(102)
	ea, eb := diffTestEngine(t, optsA), diffTestEngine(t, optsB)
	ea2 := diffTestEngine(t, optsA) // same fingerprint as ea
	if ea.forkFingerprint() == eb.forkFingerprint() {
		t.Fatalf("distinct configs share a fingerprint: %s", ea.forkFingerprint())
	}
	if ea.forkFingerprint() != ea2.forkFingerprint() {
		t.Fatalf("identical configs disagree on fingerprint: %s vs %s",
			ea.forkFingerprint(), ea2.forkFingerprint())
	}
	sa, sb, sa2 := ea.forkSetup(), eb.forkSetup(), ea2.forkSetup()
	if sa == nil || sb == nil || sa2 == nil {
		t.Fatalf("fork setup unavailable for a forkable workload: %v %v %v", sa, sb, sa2)
	}
	if sa == sb {
		t.Fatal("engines with different fingerprints share one snapshot store")
	}
	if sa != sa2 {
		t.Fatal("engines with the same fingerprint did not share the snapshot store")
	}
	if sa.trace == sb.trace {
		t.Fatal("distinct fingerprints share one recorded trace")
	}
}

// TestDifferentialForkIdentity sweeps 20 seeds across the direct, ML,
// adaptive and interrupt/resume campaign paths, requiring the forked and
// full-replay engines to be byte-identical on every output surface.
func TestDifferentialForkIdentity(t *testing.T) {
	seeds := int64(20)
	if raceEnabled || testing.Short() {
		// The full 20-seed sweep is the uninstrumented CI step's job; under
		// the race detector (or -short) a 4-seed sweep keeps the signal.
		seeds = 4
	}
	runLeg := func(t *testing.T, opts Options, disable bool) diffCampaign {
		opts.Fork.Disable = disable
		return runDiffSerial(t, diffTestEngine, opts, true)
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()

			t.Run("direct", func(t *testing.T) {
				opts := diffTestOptions(seed)
				compareForkDiff(t, "direct", runLeg(t, opts, false), runLeg(t, opts, true), true)
			})
			t.Run("ml", func(t *testing.T) {
				opts := diffTestOptions(seed)
				opts.ML.Pruning = true
				opts.ML.Batch = 2
				opts.ML.MinTrain = 4
				compareForkDiff(t, "ml", runLeg(t, opts, false), runLeg(t, opts, true), true)
			})
			t.Run("adaptive", func(t *testing.T) {
				opts := diffTestOptions(seed)
				opts.Adaptive.Enabled = true
				opts.TrialsPerPoint = 12
				compareForkDiff(t, "adaptive", runLeg(t, opts, false), runLeg(t, opts, true), true)
			})
			t.Run("resumed", func(t *testing.T) {
				opts := diffTestOptions(seed)
				forkOpts, replayOpts := opts, opts
				replayOpts.Fork.Disable = true
				compareForkDiff(t, "resumed",
					runDiffResumed(t, diffTestEngine, forkOpts, true), runDiffResumed(t, diffTestEngine, replayOpts, true), false)
			})
		})
	}
}
