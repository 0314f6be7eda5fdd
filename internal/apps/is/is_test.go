package is

import (
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
	"github.com/fastfit/fastfit/internal/profile"
)

func runIS(t *testing.T, cfg apps.Config, hook mpi.Hook) mpi.RunResult {
	t.Helper()
	app := New()
	return mpi.Run(mpi.RunOptions{NumRanks: cfg.Ranks, Seed: cfg.Seed, Hook: hook, Timeout: 20 * time.Second},
		func(r *mpi.Rank) error { return app.Main(r, cfg) })
}

func TestISVerificationPassesCleanly(t *testing.T) {
	for _, ranks := range []int{2, 4, 8} {
		cfg := apps.Config{Ranks: ranks, Scale: 256, Iters: 3, Seed: 99}
		res := runIS(t, cfg, nil)
		if err := res.FirstError(); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		out := res.Ranks[0].Values
		if len(out) != 2 {
			t.Fatalf("root output = %v", out)
		}
		if out[0] != 1 {
			t.Fatalf("verification verdict = %v, want 1 (passed)", out[0])
		}
		if out[1] != float64(256*ranks) {
			t.Fatalf("global key count = %v, want %d", out[1], 256*ranks)
		}
	}
}

func TestISUsesThePaperCollectiveSkeleton(t *testing.T) {
	cfg := apps.Config{Ranks: 4, Scale: 128, Iters: 2, Seed: 5}
	col := profile.NewCollector(cfg.Ranks)
	res := runIS(t, cfg, col)
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	prof := col.Finish()
	seen := map[mpi.CollType]bool{}
	for _, s := range prof.SitesOnRank(0) {
		seen[s.Type] = true
	}
	for _, want := range []mpi.CollType{mpi.CollBcast, mpi.CollBarrier, mpi.CollAllreduce, mpi.CollAlltoall, mpi.CollAlltoallv, mpi.CollReduce} {
		if !seen[want] {
			t.Errorf("IS should use %v", want)
		}
	}
}

func TestISHistogramCorruptionIsConsistent(t *testing.T) {
	// A bit flip in the Allreduce'd histogram is identical on all ranks
	// after the reduction, so routing stays consistent: the run should
	// usually complete (SUCCESS) or crash — not deadlock.
	cfg := apps.Config{Ranks: 4, Scale: 128, Iters: 2, Seed: 5}
	var site uint64
	{
		col := profile.NewCollector(cfg.Ranks)
		res := runIS(t, cfg, col)
		if err := res.FirstError(); err != nil {
			t.Fatal(err)
		}
		for _, s := range col.Finish().SitesOnRank(0) {
			if s.Type == mpi.CollAllreduce {
				site = s.Site
				break
			}
		}
	}
	if site == 0 {
		t.Fatal("no allreduce site found")
	}
	deadlocks := 0
	for bit := 0; bit < 24; bit++ {
		inj := fault.NewInjector(nil, fault.Fault{Rank: 0, Site: site, Invocation: 0, Target: fault.TargetSendBuf, Bit: bit})
		res := runIS(t, cfg, inj)
		if len(inj.Applied()) != 1 {
			t.Fatalf("bit %d not injected", bit)
		}
		if res.Deadlock {
			deadlocks++
		}
	}
	if deadlocks > 4 {
		t.Fatalf("histogram corruption deadlocked %d/24 runs; consistent post-reduction values should rarely deadlock", deadlocks)
	}
}

func TestISDivisibilityFreedom(t *testing.T) {
	// IS has no divisibility constraint: odd rank counts must work.
	cfg := apps.Config{Ranks: 3, Scale: 100, Iters: 2, Seed: 31}
	res := runIS(t, cfg, nil)
	if err := res.FirstError(); err != nil {
		t.Fatalf("3 ranks: %v", err)
	}
}

func TestISCorruptedKeyWithinSlackDegradesGracefully(t *testing.T) {
	// Keys corrupted into the stray-write window must not crash the run;
	// they surface through verification instead.
	cfg := apps.Config{Ranks: 2, Scale: 64, Iters: 1, Seed: 7}
	var site uint64
	{
		col := profile.NewCollector(cfg.Ranks)
		res := runIS(t, cfg, col)
		if err := res.FirstError(); err != nil {
			t.Fatal(err)
		}
		for _, s := range col.Finish().SitesOnRank(0) {
			if s.Type == mpi.CollAlltoallv {
				site = s.Site
				break
			}
		}
	}
	if site == 0 {
		t.Fatal("no alltoallv site")
	}
	// Flip bit 12 of some key (value perturbation of 4096, beyond maxKey
	// 256 but far below the stray-write limit).
	crashes := 0
	for trial := 0; trial < 8; trial++ {
		inj := fault.NewInjector(nil, fault.Fault{Rank: 0, Site: site, Invocation: 0, Target: fault.TargetSendBuf, Bit: 12 + trial*32})
		res := runIS(t, cfg, inj)
		if _, isSeg := res.FirstError().(mpi.SegFault); isSeg {
			crashes++
		}
	}
	if crashes != 0 {
		t.Fatalf("in-slack key corruption crashed %d/8 runs; should degrade gracefully", crashes)
	}
}
