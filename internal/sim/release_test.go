package sim_test

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

// poisonRec is what a released wrong-path record becomes: an address,
// target and outcome no emulated record carries, so any read of a path
// after the core has returned it changes the simulated result.
var poisonRec = trace.DynInst{
	Seq:       1 << 62,
	PC:        0xdead_beef_0000,
	MemAddr:   0xbad_bad_bad0,
	HasAddr:   true,
	Taken:     true,
	NextPC:    0xdead_beef_0004,
	WrongPath: true,
}

// poisonSource overwrites every record of a returned wrong path — its
// whole buffer — before handing it on to the frontend.
type poisonSource struct {
	sim.Source
	released *atomic.Uint64
}

func (p poisonSource) ReleaseWP(wp []trace.DynInst) {
	wp = wp[:cap(wp)]
	for i := range wp {
		wp[i] = poisonRec
	}
	p.released.Add(1)
	p.Source.ReleaseWP(wp[:0])
}

func canonical(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	if res.Err != nil {
		t.Fatalf("run fault: %v", res.Err)
	}
	b, err := server.CanonicalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReleasedWrongPathNeverRead: wpemul's canonical bytes are
// unchanged when every path the core returns is poisoned on release,
// for the synchronous and the parallel frontend at per-instruction and
// default lane sizes. Run under -race, it also shows the consumer's
// releases and the producer's reuse are properly synchronized.
func TestReleasedWrongPathNeverRead(t *testing.T) {
	for _, w := range []workloads.Workload{gap.BFS(gap.TestParams()), gap.CC(gap.TestParams())} {
		for _, parallel := range []bool{false, true} {
			for _, batch := range []int{1, 0} {
				t.Run(fmt.Sprintf("%s/parallel=%v/batch=%d", w.Name, parallel, batch), func(t *testing.T) {
					cfg := sim.Default(wrongpath.WPEmul)
					cfg.ParallelFrontend = parallel
					cfg.Core.Batch = batch
					ref, err := sim.Run(cfg, w.MustBuild())
					if err != nil {
						t.Fatal(err)
					}
					var released atomic.Uint64
					src := poisonSource{sim.NewFunctionalSource(cfg, w.MustBuild()), &released}
					s, err := sim.NewSession(cfg, src)
					if err != nil {
						src.Close()
						t.Fatal(err)
					}
					got := s.Run()
					if !bytes.Equal(canonical(t, got), canonical(t, ref)) {
						t.Fatal("poisoning released wrong paths changed the result: a path was read after its release")
					}
					n := released.Load()
					if n == 0 || n > got.WPEmulatedPaths {
						t.Fatalf("%d paths released for %d emulated", n, got.WPEmulatedPaths)
					}
				})
			}
		}
	}
}
