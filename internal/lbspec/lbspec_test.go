package lbspec

import (
	"strings"
	"testing"

	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// pathDual returns the 0-1-2 reliable path with unreliable {0,2}.
func pathDual(t testing.TB) *dualgraph.Dual {
	t.Helper()
	d, err := dualgraph.Abstract(3,
		[]dualgraph.Edge{{U: 0, V: 1}, {U: 1, V: 2}},
		[]dualgraph.Edge{{U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func trace(rounds int, evs ...sim.Event) *sim.Trace {
	tr := &sim.Trace{RoundsRun: rounds}
	for _, ev := range evs {
		tr.Record(ev)
	}
	return tr
}

func TestCleanTracePasses(t *testing.T) {
	d := pathDual(t)
	m := sim.NewMsgID(0, 1)
	tr := trace(20,
		sim.Event{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
		sim.Event{Round: 3, Node: 1, Kind: sim.EvHear, From: 0, MsgID: m},
		sim.Event{Round: 3, Node: 1, Kind: sim.EvRecv, From: 0, MsgID: m},
		sim.Event{Round: 5, Node: 0, Kind: sim.EvAck, MsgID: m},
	)
	rep := Check(d, tr, 10, 5)
	if err := rep.Err(); err != nil {
		t.Fatalf("clean trace rejected: %v", err)
	}
	if rep.Broadcasts != 1 || rep.ReliableSuccesses != 1 {
		t.Errorf("reliability accounting: %d/%d", rep.ReliableSuccesses, rep.Broadcasts)
	}
	if rep.ReliabilityRate() != 1 {
		t.Errorf("ReliabilityRate = %v", rep.ReliabilityRate())
	}
	if len(rep.AckLatencies) != 1 || rep.AckLatencies[0] != 4 {
		t.Errorf("AckLatencies = %v", rep.AckLatencies)
	}
}

func TestLateAckViolation(t *testing.T) {
	d := pathDual(t)
	m := sim.NewMsgID(0, 1)
	tr := trace(30,
		sim.Event{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
		sim.Event{Round: 25, Node: 0, Kind: sim.EvAck, MsgID: m},
	)
	rep := Check(d, tr, 10, 5)
	if rep.Err() == nil {
		t.Fatal("late ack passed")
	}
}

func TestMissingAckViolation(t *testing.T) {
	d := pathDual(t)
	m := sim.NewMsgID(0, 1)
	t.Run("deadline passed", func(t *testing.T) {
		tr := trace(30, sim.Event{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m})
		if Check(d, tr, 10, 5).Err() == nil {
			t.Fatal("missing ack passed")
		}
	})
	t.Run("still in flight", func(t *testing.T) {
		tr := trace(5, sim.Event{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m})
		if err := Check(d, tr, 10, 5).Err(); err != nil {
			t.Fatalf("in-flight broadcast flagged: %v", err)
		}
	})
}

func TestAckAnomalies(t *testing.T) {
	d := pathDual(t)
	m := sim.NewMsgID(0, 1)
	t.Run("ack without bcast", func(t *testing.T) {
		tr := trace(10, sim.Event{Round: 2, Node: 0, Kind: sim.EvAck, MsgID: m})
		if Check(d, tr, 10, 5).Err() == nil {
			t.Fatal("orphan ack passed")
		}
	})
	t.Run("double ack", func(t *testing.T) {
		tr := trace(10,
			sim.Event{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
			sim.Event{Round: 2, Node: 0, Kind: sim.EvAck, MsgID: m},
			sim.Event{Round: 3, Node: 0, Kind: sim.EvAck, MsgID: m},
		)
		if Check(d, tr, 10, 5).Err() == nil {
			t.Fatal("double ack passed")
		}
	})
	t.Run("foreign ack", func(t *testing.T) {
		tr := trace(10,
			sim.Event{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
			sim.Event{Round: 2, Node: 1, Kind: sim.EvAck, MsgID: m},
		)
		if Check(d, tr, 10, 5).Err() == nil {
			t.Fatal("foreign ack passed")
		}
	})
	t.Run("duplicate bcast", func(t *testing.T) {
		tr := trace(10,
			sim.Event{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
			sim.Event{Round: 2, Node: 0, Kind: sim.EvBcast, MsgID: m},
		)
		if Check(d, tr, 20, 5).Err() == nil {
			t.Fatal("duplicate bcast passed")
		}
	})
}

func TestValidityViolations(t *testing.T) {
	d := pathDual(t)
	m := sim.NewMsgID(0, 1)
	base := []sim.Event{
		{Round: 3, Node: 0, Kind: sim.EvBcast, MsgID: m},
		{Round: 8, Node: 0, Kind: sim.EvAck, MsgID: m},
	}
	t.Run("recv before active span", func(t *testing.T) {
		tr := trace(20, append(base, sim.Event{Round: 1, Node: 1, Kind: sim.EvRecv, MsgID: m})...)
		if Check(d, tr, 20, 5).Err() == nil {
			t.Fatal("early recv passed")
		}
	})
	t.Run("recv after ack", func(t *testing.T) {
		tr := trace(20, append(base, sim.Event{Round: 12, Node: 1, Kind: sim.EvRecv, MsgID: m})...)
		if Check(d, tr, 20, 5).Err() == nil {
			t.Fatal("late recv passed")
		}
	})
	t.Run("recv of unknown message", func(t *testing.T) {
		tr := trace(20, sim.Event{Round: 2, Node: 1, Kind: sim.EvRecv, MsgID: sim.NewMsgID(9, 9)})
		if Check(d, tr, 20, 5).Err() == nil {
			t.Fatal("unknown message recv passed")
		}
	})
	t.Run("recv from non-neighbor", func(t *testing.T) {
		// Node 2 is not a G′ neighbor of... node 0's broadcast heard at
		// node 2 is legal ({0,2} ∈ E′). Build a 4th node with no edges.
		d4, err := dualgraph.Abstract(4,
			[]dualgraph.Edge{{U: 0, V: 1}},
			nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace(20,
			sim.Event{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
			sim.Event{Round: 2, Node: 3, Kind: sim.EvRecv, MsgID: m},
			sim.Event{Round: 5, Node: 0, Kind: sim.EvAck, MsgID: m},
		)
		if Check(d4, tr, 20, 5).Err() == nil {
			t.Fatal("recv at non-neighbor passed")
		}
	})
	t.Run("duplicate recv", func(t *testing.T) {
		tr := trace(20, append(base,
			sim.Event{Round: 4, Node: 1, Kind: sim.EvRecv, MsgID: m},
			sim.Event{Round: 5, Node: 1, Kind: sim.EvRecv, MsgID: m})...)
		if Check(d, tr, 20, 5).Err() == nil {
			t.Fatal("duplicate recv passed")
		}
	})
}

func TestReliabilityAccounting(t *testing.T) {
	d := pathDual(t)
	m := sim.NewMsgID(1, 1) // node 1 broadcasts; reliable neighbors 0 and 2
	full := trace(20,
		sim.Event{Round: 1, Node: 1, Kind: sim.EvBcast, MsgID: m},
		sim.Event{Round: 2, Node: 0, Kind: sim.EvRecv, From: 1, MsgID: m},
		sim.Event{Round: 3, Node: 2, Kind: sim.EvRecv, From: 1, MsgID: m},
		sim.Event{Round: 6, Node: 1, Kind: sim.EvAck, MsgID: m},
	)
	rep := Check(d, full, 20, 5)
	if rep.ReliableSuccesses != 1 {
		t.Errorf("full delivery not counted: %+v", rep)
	}
	if len(rep.FirstRecvLatencies) != 1 || rep.FirstRecvLatencies[0] != 2 {
		t.Errorf("FirstRecvLatencies = %v, want [2]", rep.FirstRecvLatencies)
	}

	partial := trace(20,
		sim.Event{Round: 1, Node: 1, Kind: sim.EvBcast, MsgID: m},
		sim.Event{Round: 2, Node: 0, Kind: sim.EvRecv, From: 1, MsgID: m},
		sim.Event{Round: 6, Node: 1, Kind: sim.EvAck, MsgID: m},
	)
	rep = Check(d, partial, 20, 5)
	if rep.ReliableSuccesses != 0 || rep.Broadcasts != 1 {
		t.Errorf("partial delivery counted as success: %+v", rep)
	}
	if rep.ReliabilityRate() != 0 {
		t.Errorf("ReliabilityRate = %v", rep.ReliabilityRate())
	}
}

func TestProgressAccounting(t *testing.T) {
	d := pathDual(t)
	m := sim.NewMsgID(0, 1)
	// tprog = 5; node 0 active rounds 1..12 (covers phases 1 and 2).
	// Node 1 hears in phase 1 only.
	tr := trace(15,
		sim.Event{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
		sim.Event{Round: 4, Node: 1, Kind: sim.EvHear, From: 0, MsgID: m},
		sim.Event{Round: 4, Node: 1, Kind: sim.EvRecv, From: 0, MsgID: m},
		sim.Event{Round: 12, Node: 0, Kind: sim.EvAck, MsgID: m},
	)
	rep := Check(d, tr, 20, 5)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	// Node 1 is the only reliable neighbor of 0. Opportunities: node 1 in
	// phases 1 (rounds 1-5) and 2 (rounds 6-10); phase 3 (11-15) is not
	// fully covered (active through 12 only).
	if rep.ProgressOpportunities != 2 {
		t.Errorf("opportunities = %d, want 2", rep.ProgressOpportunities)
	}
	if rep.ProgressSuccesses != 1 {
		t.Errorf("successes = %d, want 1", rep.ProgressSuccesses)
	}
	if rep.OppsByNode[1] != 2 || rep.SuccByNode[1] != 1 {
		t.Errorf("per-node accounting: %v %v", rep.OppsByNode, rep.SuccByNode)
	}
	if got := rep.ProgressRate(); got != 0.5 {
		t.Errorf("ProgressRate = %v", got)
	}
}

func TestProgressNoOpportunities(t *testing.T) {
	d := pathDual(t)
	tr := trace(15)
	rep := Check(d, tr, 20, 5)
	if rep.ProgressOpportunities != 0 || rep.ProgressRate() != 1 {
		t.Errorf("idle trace: %+v", rep)
	}
}

func TestProgressShortTrace(t *testing.T) {
	d := pathDual(t)
	rep := Check(d, trace(3), 20, 5)
	if rep.ProgressOpportunities != 0 {
		t.Error("opportunities counted for trace shorter than one phase")
	}
}

// TestCheckConsumesEveryEvent pins the replay's treatment of events
// recorded past tr.RoundsRun: they are consumed in the final round, so no
// event escapes the check.
func TestCheckConsumesEveryEvent(t *testing.T) {
	d := pathDual(t)
	m := sim.NewMsgID(0, 1)
	rep := Check(d, trace(3,
		sim.Event{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
		sim.Event{Round: 5, Node: 0, Kind: sim.EvAck, MsgID: m},
	), 10, 0)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Broadcasts != 1 || len(rep.AckLatencies) != 1 || rep.AckLatencies[0] != 4 {
		t.Errorf("ack past RoundsRun not counted: %+v", rep)
	}
	if Check(d, trace(0, sim.Event{Round: 2, Node: 0, Kind: sim.EvAck, MsgID: m}), 10, 0).Err() == nil {
		t.Error("orphan ack in a zero-round trace passed")
	}
}

func TestErrTruncation(t *testing.T) {
	rep := &Report{}
	for i := 0; i < 10; i++ {
		rep.Violations = append(rep.Violations, "v")
	}
	err := rep.Err()
	if err == nil || !strings.Contains(err.Error(), "and 5 more") {
		t.Errorf("Err() = %v", err)
	}
}

// TestEndToEndLBAlg runs the real algorithm and requires a fully clean
// deterministic report plus high probabilistic rates.
func TestEndToEndLBAlg(t *testing.T) {
	rng := xrand.New(21)
	d, err := dualgraph.SingleHopCluster(8, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]core.Service, d.N())
	simProcs := make([]sim.Process, d.N())
	for u := range procs {
		procs[u] = core.NewLBAlg(p)
		simProcs[u] = procs[u]
	}
	env := core.NewSaturatingEnv(procs, []int{0, 1})
	e, err := sim.New(sim.Config{Dual: d, Procs: simProcs, Sched: sched.Random{P: 0.5, Seed: 5}, Env: env, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(4 * p.PhaseLen())

	rep := Check(d, e.Trace(), p.TAckBound(), p.TProgBound())
	if err := rep.Err(); err != nil {
		t.Fatalf("deterministic conditions violated: %v", err)
	}
	if rep.ProgressOpportunities == 0 {
		t.Fatal("no progress opportunities generated")
	}
	if rate := rep.ProgressRate(); rate < 0.8 {
		t.Errorf("progress rate %v below 1−ε", rate)
	}
}
