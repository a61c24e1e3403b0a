package sim_test

import (
	"testing"

	"lbcast/internal/churn"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// batchOnly and sparseOnly extend the Included-only shim with exactly one of
// the two scheduler interfaces the engine requires.
type (
	batchOnly  struct{ sim.AlwaysSched }
	sparseOnly struct{ sim.AlwaysSched }
)

func (batchOnly) IncludedBatch(int, []bool)         {}
func (sparseOnly) Uniform(int) (bool, bool)         { return true, true }
func (sparseOnly) IncludedFor(int, []int32, []bool) {}

// TestNewRequiresFullScheduler pins New's scheduler contract: a non-nil
// Config.Sched must implement both SparseLinkScheduler and
// BatchLinkScheduler. Partial schedulers are rejected with an error; every
// scheduler the repository ships is accepted.
func TestNewRequiresFullScheduler(t *testing.T) {
	d, err := dualgraph.RandomGeometric(40, 4, 4, 1.5, dualgraph.GreyUnreliable, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := sched.NewAdaptive(d, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		sched sim.LinkScheduler
		ok    bool
	}{
		{"included-only", sim.AlwaysSched{}, false},
		{"batch-only", batchOnly{}, false},
		{"sparse-only", sparseOnly{}, false},
		{"never", sched.Never{}, true},
		{"always", sched.Always{}, true},
		{"random", sched.NewRandom(0.5, 1), true},
		{"periodic", sched.Periodic{Period: 3}, true},
		{"anti-decay", sched.AntiDecay{CycleLen: 4}, true},
		{"adaptive", adaptive, true},
		{"fade", churn.NewFadeScheduler(sched.NewRandom(0.5, 1), d, nil), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			procs := make([]sim.Process, d.N())
			for u := range procs {
				procs[u] = idleProc{}
			}
			e, err := sim.New(sim.Config{Dual: d, Procs: procs, Sched: tc.sched, Seed: 1})
			if tc.ok {
				if err != nil {
					t.Fatalf("New rejected %T: %v", tc.sched, err)
				}
				e.Run(3)
				e.Close()
			} else if err == nil {
				t.Fatalf("New accepted %T", tc.sched)
			}
		})
	}
}

type idleProc struct{}

func (idleProc) Init(*sim.NodeEnv)           {}
func (idleProc) Transmit(int) (any, bool)    { return nil, false }
func (idleProc) Receive(int, int, any, bool) {}
