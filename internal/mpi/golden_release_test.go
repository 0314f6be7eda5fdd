package mpi_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps/all"
	"github.com/fastfit/fastfit/internal/experiments"
	"github.com/fastfit/fastfit/internal/mpi"
)

// Fault-free runs of every bundled application must complete all their
// rendezvous slots without the supervisor: a release in a golden run would
// mean production traffic waits on quiescence detection at every such
// collective. The apps run at the experiments' shapes for each rank count.
func TestGoldenRunsReleaseNoSlot(t *testing.T) {
	for _, ranks := range []int{8, 32} {
		st := experiments.NewStore(experiments.Scale{Ranks: ranks})
		for _, name := range all.Names() {
			app, cfg, err := st.AppConfig(name)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/ranks=%d", name, ranks), func(t *testing.T) {
				res := mpi.Run(mpi.RunOptions{NumRanks: ranks, Seed: cfg.Seed, Timeout: 30 * time.Second},
					func(r *mpi.Rank) error { return app.Main(r, cfg) })
				if err := res.FirstError(); err != nil || res.Deadlock || res.TimedOut {
					t.Fatalf("golden run failed: err=%v deadlock=%v timeout=%v", err, res.Deadlock, res.TimedOut)
				}
				if n := mpi.SlotReleases(res); n != 0 {
					t.Errorf("supervisor released %d rendezvous slots in a fault-free run", n)
				}
			})
		}
	}
}
