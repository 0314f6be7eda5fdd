package mpi_test

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/mpi"
	"github.com/fastfit/fastfit/internal/profile"
)

// siteRecorder copies the identity fields of every collective on rank 0
// (the runtime reuses its call records, so the hook must copy).
type siteRecorder struct {
	mpi.NopHook
	calls []mpi.CollectiveCall
}

func (h *siteRecorder) BeforeCollective(call *mpi.CollectiveCall) {
	if call.Rank == 0 {
		h.calls = append(h.calls, mpi.CollectiveCall{
			Site: call.Site, SiteName: call.SiteName, StackHash: call.StackHash,
			Invocation: call.Invocation,
		})
	}
}

func recordSites(t *testing.T, fn func(r *mpi.Rank) error) []mpi.CollectiveCall {
	t.Helper()
	h := &siteRecorder{}
	res := mpi.Run(mpi.RunOptions{NumRanks: 2, Seed: 1, Timeout: 10 * time.Second, Hook: h}, fn)
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	return h.calls
}

// allreduceLine is one source line that two different callers reach.
func allreduceLine(r *mpi.Rank) { r.AllreduceFloat64(1, mpi.OpSum, mpi.CommWorld) }

func viaFirstCaller(r *mpi.Rank)  { allreduceLine(r) }
func viaSecondCaller(r *mpi.Rank) { allreduceLine(r) }

func TestSiteOneLineTwoCallers(t *testing.T) {
	calls := recordSites(t, func(r *mpi.Rank) error {
		viaFirstCaller(r)
		viaSecondCaller(r)
		return nil
	})
	if len(calls) != 2 {
		t.Fatalf("recorded %d calls, want 2", len(calls))
	}
	a, b := calls[0], calls[1]
	if a.Site != b.Site || a.SiteName != b.SiteName {
		t.Errorf("one source line gave two sites: %#x %q vs %#x %q", a.Site, a.SiteName, b.Site, b.SiteName)
	}
	if a.StackHash == b.StackHash {
		t.Errorf("two callers share stack hash %#x", a.StackHash)
	}
	if a.Invocation != 0 || b.Invocation != 1 {
		t.Errorf("invocations %d, %d; want 0, 1 (one site counts both)", a.Invocation, b.Invocation)
	}
}

// callerOf returns the full function name, file base name and line of its
// caller, the three parts a site identity hashes. Its argument only lets
// it sit on the same line as the collective it describes.
func callerOf(float64) (string, string, int) {
	pc, file, line, _ := runtime.Caller(1)
	return runtime.FuncForPC(pc).Name(), filepath.Base(file), line
}

func TestSiteIsHashOfFunctionFileLine(t *testing.T) {
	var fn, file string
	var line int
	calls := recordSites(t, func(r *mpi.Rank) error {
		f, fl, l := callerOf(r.AllreduceFloat64(1, mpi.OpSum, mpi.CommWorld))
		if r.ID() == 0 {
			fn, file, line = f, fl, l
		}
		return nil
	})
	if len(calls) != 1 {
		t.Fatalf("recorded %d calls, want 1", len(calls))
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s %s:%d", fn, file, line)
	if calls[0].Site != h.Sum64() {
		t.Errorf("Site = %#x, want FNV-1a of %q = %#x", calls[0].Site, fmt.Sprintf("%s %s:%d", fn, file, line), h.Sum64())
	}
	// The name is the same location with the package path cut.
	want := fmt.Sprintf("%s %s:%d", fn[strings.LastIndexByte(fn, '/')+1:], file, line)
	if calls[0].SiteName != want {
		t.Errorf("SiteName = %q, want %q", calls[0].SiteName, want)
	}
}

// closureFirstMain calls a collective from a closure on an earlier line
// than the parent's own call.
func closureFirstMain(r *mpi.Rank) error {
	inner := func() { r.Barrier(mpi.CommWorld) }
	r.AllreduceFloat64(1, mpi.OpSum, mpi.CommWorld)
	inner()
	return nil
}

func TestSitesOnRankOrderByFunctionThenLine(t *testing.T) {
	col := profile.NewCollector(2)
	res := mpi.Run(mpi.RunOptions{NumRanks: 2, Seed: 1, Timeout: 10 * time.Second, Hook: col}, closureFirstMain)
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	sites := col.Finish().SitesOnRank(0)
	if len(sites) != 2 {
		t.Fatalf("%d sites on rank 0, want 2", len(sites))
	}
	if sites[0].Type != mpi.CollAllreduce || !strings.HasPrefix(sites[0].Name, "mpi_test.closureFirstMain ") {
		t.Errorf("CALL_ID 0 is %v %q, want the parent's Allreduce", sites[0].Type, sites[0].Name)
	}
	if sites[1].Type != mpi.CollBarrier || !strings.HasPrefix(sites[1].Name, "mpi_test.closureFirstMain.func1 ") {
		t.Errorf("CALL_ID 1 is %v %q, want the closure's Barrier", sites[1].Type, sites[1].Name)
	}
}
