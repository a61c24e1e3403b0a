package lbspec

import (
	"sort"
	"testing"

	"lbcast/internal/churn"
	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// replayMonitor drives a monitor round by round over a crafted event list,
// as the engine would: events of round t enter the trace during round t and
// the monitor consumes them in AfterRound(t). The lifecycle transitions in
// opts reach the monitor at the start of their round, as the churn
// injector delivers them.
func replayMonitor(t *testing.T, d *dualgraph.Dual, rounds, tack, tprog int, evs []sim.Event, opts refOptions) *Monitor {
	t.Helper()
	sorted := append([]sim.Event(nil), evs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Round < sorted[j].Round })
	tr := &sim.Trace{}
	m, err := NewMonitor(MonitorConfig{Dual: d, Trace: tr, TAck: tack, TProg: tprog})
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for round := 1; round <= rounds; round++ {
		m.BeforeRound(round)
		for _, nr := range opts.Downs {
			if nr.Round == round {
				m.NodeDown(round, nr.Node)
			}
		}
		for _, nr := range opts.Restarts {
			if nr.Round == round {
				m.NodeRestarted(round, nr.Node)
			}
		}
		for k < len(sorted) && sorted[k].Round <= round {
			tr.Record(sorted[k])
			k++
		}
		tr.RoundsRun++
		m.AfterRound(round)
	}
	return m
}

// reportsEquivalent asserts two reports carry the same verdict and
// statistics; want is the oracle's (refCheck/refCheckChurned). Latency
// slices are compared as multisets (the oracle orders them by bcast, the
// monitor by completion).
func reportsEquivalent(t testing.TB, got, want *Report) {
	t.Helper()
	if len(got.Violations) != len(want.Violations) {
		t.Errorf("violations: got %d, oracle %d\ngot: %v\noracle: %v",
			len(got.Violations), len(want.Violations), got.Violations, want.Violations)
	}
	reportStatsEqual(t, got, want)
}

// reportStatsEqual asserts the reliability, progress and latency
// statistics of two reports agree; want is the oracle's.
func reportStatsEqual(t testing.TB, got, want *Report) {
	t.Helper()
	if got.Broadcasts != want.Broadcasts || got.ReliableSuccesses != want.ReliableSuccesses {
		t.Errorf("broadcast accounting: got %d/%d, oracle %d/%d",
			got.ReliableSuccesses, got.Broadcasts, want.ReliableSuccesses, want.Broadcasts)
	}
	if got.ProgressOpportunities != want.ProgressOpportunities || got.ProgressSuccesses != want.ProgressSuccesses {
		t.Errorf("progress accounting: got %d/%d, oracle %d/%d",
			got.ProgressSuccesses, got.ProgressOpportunities, want.ProgressSuccesses, want.ProgressOpportunities)
	}
	for u := range want.OppsByNode {
		if got.OppsByNode[u] != want.OppsByNode[u] || got.SuccByNode[u] != want.SuccByNode[u] {
			t.Errorf("node %d progress grid: got %d/%d, oracle %d/%d",
				u, got.SuccByNode[u], got.OppsByNode[u], want.SuccByNode[u], want.OppsByNode[u])
			break
		}
	}
	for _, s := range []struct {
		name      string
		got, want []int
	}{
		{"AckLatencies", got.AckLatencies, want.AckLatencies},
		{"FirstRecvLatencies", got.FirstRecvLatencies, want.FirstRecvLatencies},
	} {
		g := append([]int(nil), s.got...)
		w := append([]int(nil), s.want...)
		sort.Ints(g)
		sort.Ints(w)
		if len(g) != len(w) {
			t.Errorf("%s: got %v, oracle %v", s.name, g, w)
			continue
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s: got %v, oracle %v", s.name, g, w)
				break
			}
		}
	}
}

// TestMonitorMatchesCheckOnCraftedTraces replays the adversarial traces of
// the Check unit tests through the monitor, and through Check, and requires
// the oracle's verdict from both: identical violation counts and
// statistics on every case.
func TestMonitorMatchesCheckOnCraftedTraces(t *testing.T) {
	d := pathDual(t)
	m := sim.NewMsgID(0, 1)
	m1 := sim.NewMsgID(1, 1)
	cases := []struct {
		name   string
		rounds int
		evs    []sim.Event
	}{
		{"clean", 20, []sim.Event{
			{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
			{Round: 3, Node: 1, Kind: sim.EvHear, From: 0, MsgID: m},
			{Round: 3, Node: 1, Kind: sim.EvRecv, From: 0, MsgID: m},
			{Round: 5, Node: 0, Kind: sim.EvAck, MsgID: m},
		}},
		{"late ack", 30, []sim.Event{
			{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
			{Round: 25, Node: 0, Kind: sim.EvAck, MsgID: m},
		}},
		{"missing ack", 30, []sim.Event{
			{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
		}},
		{"in flight", 5, []sim.Event{
			{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
		}},
		{"orphan ack", 10, []sim.Event{
			{Round: 2, Node: 0, Kind: sim.EvAck, MsgID: m},
		}},
		{"double ack", 10, []sim.Event{
			{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
			{Round: 2, Node: 0, Kind: sim.EvAck, MsgID: m},
			{Round: 3, Node: 0, Kind: sim.EvAck, MsgID: m},
		}},
		{"foreign ack", 10, []sim.Event{
			{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
			{Round: 2, Node: 1, Kind: sim.EvAck, MsgID: m},
		}},
		{"duplicate bcast", 10, []sim.Event{
			{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
			{Round: 2, Node: 0, Kind: sim.EvBcast, MsgID: m},
		}},
		{"late recv", 20, []sim.Event{
			{Round: 3, Node: 0, Kind: sim.EvBcast, MsgID: m},
			{Round: 8, Node: 0, Kind: sim.EvAck, MsgID: m},
			{Round: 12, Node: 1, Kind: sim.EvRecv, MsgID: m},
		}},
		{"unknown message", 20, []sim.Event{
			{Round: 2, Node: 1, Kind: sim.EvRecv, MsgID: sim.NewMsgID(9, 9)},
		}},
		{"duplicate recv", 20, []sim.Event{
			{Round: 3, Node: 0, Kind: sim.EvBcast, MsgID: m},
			{Round: 4, Node: 1, Kind: sim.EvRecv, MsgID: m},
			{Round: 5, Node: 1, Kind: sim.EvRecv, MsgID: m},
			{Round: 8, Node: 0, Kind: sim.EvAck, MsgID: m},
		}},
		{"reliability full", 20, []sim.Event{
			{Round: 1, Node: 1, Kind: sim.EvBcast, MsgID: m1},
			{Round: 2, Node: 0, Kind: sim.EvRecv, From: 1, MsgID: m1},
			{Round: 3, Node: 2, Kind: sim.EvRecv, From: 1, MsgID: m1},
			{Round: 6, Node: 1, Kind: sim.EvAck, MsgID: m1},
		}},
		{"reliability partial", 20, []sim.Event{
			{Round: 1, Node: 1, Kind: sim.EvBcast, MsgID: m1},
			{Round: 2, Node: 0, Kind: sim.EvRecv, From: 1, MsgID: m1},
			{Round: 6, Node: 1, Kind: sim.EvAck, MsgID: m1},
		}},
		{"progress grid", 15, []sim.Event{
			{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
			{Round: 4, Node: 1, Kind: sim.EvHear, From: 0, MsgID: m},
			{Round: 4, Node: 1, Kind: sim.EvRecv, From: 0, MsgID: m},
			{Round: 12, Node: 0, Kind: sim.EvAck, MsgID: m},
		}},
		{"ack-round recv counts", 20, []sim.Event{
			// Receiver id above the broadcaster: the ack drains first in
			// the batch and the recv in the same round must still count.
			{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
			{Round: 5, Node: 0, Kind: sim.EvAck, MsgID: m},
			{Round: 5, Node: 1, Kind: sim.EvRecv, From: 0, MsgID: m},
		}},
		{"recv before bcast", 20, []sim.Event{
			// An early recv is a validity violation, never a delivery:
			// the broadcast is not a reliable success.
			{Round: 2, Node: 1, Kind: sim.EvRecv, From: 0, MsgID: m},
			{Round: 5, Node: 0, Kind: sim.EvBcast, MsgID: m},
			{Round: 8, Node: 0, Kind: sim.EvAck, MsgID: m},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tack, tprog := 10, 5
			tr := trace(tc.rounds, tc.evs...)
			want := refCheck(d, tr, tack, tprog)
			mon := replayMonitor(t, d, tc.rounds, tack, tprog, tc.evs, refOptions{})
			reportsEquivalent(t, mon.Report(), want)
			reportsEquivalent(t, Check(d, tr, tack, tprog), want)
		})
	}
}

// monitoredLBAlgRun executes the real protocol with the monitor riding
// along as environment and returns monitor + the dual + engine trace.
func monitoredLBAlgRun(t *testing.T, seed int64, driver sim.Driver, workers int) (*Monitor, *dualgraph.Dual, *sim.Trace, int, int) {
	t.Helper()
	rng := xrand.New(uint64(seed))
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
	tr := &sim.Trace{}
	mon, err := NewMonitor(MonitorConfig{
		Dual: d, Trace: tr, TAck: p.TAckBound(), TProg: p.TProgBound(), Inner: env,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(sim.Config{
		Dual: d, Procs: simProcs,
		Sched: sched.Random{P: 0.5, Seed: uint64(seed) + 4},
		Env:   mon, Seed: uint64(seed) + 9,
		Driver: driver, Workers: workers, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Ack latencies run close to TAckBound (~18 phases on this cluster), so
	// the run must be long enough for spans to actually complete.
	e.Run(20 * p.PhaseLen())
	return mon, d, tr, p.TAckBound(), p.TProgBound()
}

// TestMonitorLockstepLBAlg is the lockstep property test: across seeds and
// drivers, the online monitor, the Check replay and the oracle must agree
// on the full report of a real protocol execution.
func TestMonitorLockstepLBAlg(t *testing.T) {
	for _, seed := range []int64{3, 21, 77} {
		for _, dr := range []struct {
			name    string
			driver  sim.Driver
			workers int
		}{
			{"sequential", sim.DriverSequential, 0},
			{"pool2", sim.DriverWorkerPool, 2},
		} {
			mon, d, tr, tack, tprog := monitoredLBAlgRun(t, seed, dr.driver, dr.workers)
			want := refCheck(d, tr, tack, tprog)
			if err := want.Err(); err != nil {
				t.Fatalf("seed %d %s: protocol run not clean: %v", seed, dr.name, err)
			}
			if want.Broadcasts == 0 {
				t.Fatalf("seed %d %s: no broadcasts completed", seed, dr.name)
			}
			reportsEquivalent(t, mon.Report(), want)
			reportsEquivalent(t, Check(d, tr, tack, tprog), want)
			if mon.TotalViolations() != 0 {
				t.Errorf("seed %d %s: monitor flagged %d violations on a clean run: %v",
					seed, dr.name, mon.TotalViolations(), mon.Violations())
			}
			_ = dr
		}
	}
}

// TestCheckChurnedRestartReusesMsgID is the regression test for the
// incarnation-aware keying: a restarted node reuses a MsgID, which the
// static checker must flag and the churn-aware checker must accept.
func TestCheckChurnedRestartReusesMsgID(t *testing.T) {
	d := pathDual(t)
	m := sim.NewMsgID(0, 1)
	evs := []sim.Event{
		{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m},
		{Round: 2, Node: 1, Kind: sim.EvRecv, From: 0, MsgID: m},
		{Round: 3, Node: 0, Kind: sim.EvAck, MsgID: m},
		// Node 0 crashes at round 5, restarts at round 8, and its fresh
		// incarnation broadcasts m(0,1) again.
		{Round: 9, Node: 0, Kind: sim.EvBcast, MsgID: m},
		{Round: 10, Node: 1, Kind: sim.EvRecv, From: 0, MsgID: m},
		{Round: 11, Node: 0, Kind: sim.EvAck, MsgID: m},
	}
	tr := trace(20, evs...)
	opts := refOptions{
		Downs:    []nodeRound{{Round: 5, Node: 0}},
		Restarts: []nodeRound{{Round: 8, Node: 0}},
	}

	churned := refCheckChurned(d, tr, 10, 0, opts)
	if err := churned.Err(); err != nil {
		t.Fatalf("churn-aware checker rejected a legitimate restart reuse: %v", err)
	}
	if churned.Broadcasts != 2 || churned.ReliableSuccesses != 2 {
		t.Errorf("both incarnations should complete reliably: %d/%d",
			churned.ReliableSuccesses, churned.Broadcasts)
	}

	static := Check(d, tr, 10, 0)
	if static.Err() == nil {
		t.Fatal("static checker accepted a MsgID reuse without restart context")
	}

	// The monitor, fed the same lifecycle transitions, agrees with the
	// churn-aware oracle.
	mon := replayMonitor(t, d, 20, 10, 0, evs, opts)
	reportsEquivalent(t, mon.Report(), churned)
}

// TestCheckChurnedExcusesInterruptedSpan pins the down-excusal semantics: a
// crash before the ack deadline excuses the span, a crash after the
// deadline does not.
func TestCheckChurnedExcusesInterruptedSpan(t *testing.T) {
	d := pathDual(t)
	m := sim.NewMsgID(0, 1)
	evs := []sim.Event{{Round: 1, Node: 0, Kind: sim.EvBcast, MsgID: m}}
	tr := trace(30, evs...)

	early := refOptions{Downs: []nodeRound{{Round: 6, Node: 0}}}
	want := refCheckChurned(d, tr, 10, 0, early)
	if err := want.Err(); err != nil {
		t.Fatalf("crash before the deadline should excuse the span: %v", err)
	}
	reportsEquivalent(t, replayMonitor(t, d, 30, 10, 0, evs, early).Report(), want)

	late := refOptions{Downs: []nodeRound{{Round: 20, Node: 0}}}
	want = refCheckChurned(d, tr, 10, 0, late)
	if want.Err() == nil {
		t.Fatal("deadline expired while the node was up; the later crash must not excuse it")
	}
	reportsEquivalent(t, replayMonitor(t, d, 30, 10, 0, evs, late).Report(), want)

	if Check(d, tr, 10, 0).Err() == nil {
		t.Fatal("static checker lost the missing-ack violation")
	}
}

// TestMonitorChurnLockstep runs the real protocol under crash/recover
// churn (static topology, so the whole-trace oracle remains sound) with the
// monitor wired to the injector's lifecycle hooks, and requires monitor ≡
// refCheckChurned agreement — including across drivers. Restarted senders reuse
// MsgIDs here, so this exercises the incarnation keying end to end.
func TestMonitorChurnLockstep(t *testing.T) {
	run := func(driver sim.Driver, workers int) (*Monitor, *Report) {
		d, err := dualgraph.RandomGeometric(40, 6, 6, 1.5, dualgraph.GreyUnreliable, xrand.New(11))
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), 1, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		rounds := 30 * p.PhaseLen() // past TAckBound, so broadcasts complete
		// Deterministic crash/recover schedule: sender 0 restarts early (its
		// fresh incarnation reuses MsgIDs and still completes within the
		// run), and two receivers bounce to exercise receiver-side
		// incarnation dedup and span excusal. Senders 1–3 stay up, so the
		// run is guaranteed to complete broadcasts.
		plan := &churn.Plan{Events: []churn.Event{
			{Round: 50, Kind: churn.Crash, Node: 0},
			{Round: 300, Kind: churn.Recover, Node: 0},
			{Round: 400, Kind: churn.Crash, Node: 10},
			{Round: 600, Kind: churn.Recover, Node: 10},
			{Round: 1000, Kind: churn.Crash, Node: 20},
			{Round: 1400, Kind: churn.Recover, Node: 20},
		}}
		if err := plan.Validate(d.N()); err != nil {
			t.Fatal(err)
		}
		procs := make([]core.Service, d.N())
		simProcs := make([]sim.Process, d.N())
		for u := range procs {
			procs[u] = core.NewLBAlg(p)
			simProcs[u] = procs[u]
		}
		env := core.NewSaturatingEnv(procs, []int{0, 1, 2, 3})
		tr := &sim.Trace{}
		mon, err := NewMonitor(MonitorConfig{
			Dual: d, Trace: tr, TAck: p.TAckBound(), TProg: p.TProgBound(), Inner: env,
		})
		if err != nil {
			t.Fatal(err)
		}
		inj, err := churn.NewInjector(churn.InjectorConfig{
			Plan: plan, Dual: d, Index: geo.BuildGridIndex(d.Emb),
			Policy: dualgraph.GreyUnreliable,
			Restart: func(u int) sim.Process {
				procs[u] = core.NewLBAlg(p)
				simProcs[u] = procs[u]
				return procs[u]
			},
			Inner:     mon,
			OnRestart: func(u int, _ sim.Process) { env.Rearm(u) },
			OnDown:    mon.NodeDown,
			OnUp:      mon.NodeRestarted,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := inj.Detach(); err != nil {
			t.Fatal(err)
		}
		e, err := sim.New(sim.Config{
			Dual: d, Procs: simProcs,
			Sched: sched.Random{P: 0.5, Seed: 31},
			Env:   inj, Seed: 37,
			Driver: driver, Workers: workers, Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		inj.Attach(e)
		e.Run(rounds)
		if err := inj.Err(); err != nil {
			t.Fatal(err)
		}

		opts := refOptions{}
		for _, ev := range plan.Events {
			switch ev.Kind {
			case churn.Crash:
				opts.Downs = append(opts.Downs, nodeRound{Round: ev.Round, Node: ev.Node})
			case churn.Recover:
				opts.Restarts = append(opts.Restarts, nodeRound{Round: ev.Round, Node: ev.Node})
			}
		}
		return mon, refCheckChurned(d, tr, p.TAckBound(), p.TProgBound(), opts)
	}

	mon, want := run(sim.DriverSequential, 0)
	if want.Broadcasts == 0 {
		t.Fatal("churned run completed no broadcasts; test has no teeth")
	}
	if err := want.Err(); err != nil {
		t.Fatalf("churn-aware checker flagged the LBAlg run: %v", err)
	}
	reportsEquivalent(t, mon.Report(), want)

	monPool, wantPool := run(sim.DriverWorkerPool, 4)
	reportsEquivalent(t, monPool.Report(), wantPool)
	if got, want := len(monPool.Violations()), len(mon.Violations()); got != want {
		t.Errorf("driver-dependent verdict: pool %d violations, sequential %d", got, want)
	}
}

// TestMonitorDiscardConsumed pins the no-retention mode: the trace keeps
// logical indexing and aggregate counters while chunk storage is released,
// and the monitor's verdict is unchanged.
func TestMonitorDiscardConsumed(t *testing.T) {
	run := func(discard bool) (*Monitor, *sim.Trace, *dualgraph.Dual, int, int) {
		rng := xrand.New(5)
		d, err := dualgraph.SingleHopCluster(10, 1, rng)
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
		env := core.NewSaturatingEnv(procs, []int{0, 1, 2, 3})
		tr := &sim.Trace{}
		mon, err := NewMonitor(MonitorConfig{
			Dual: d, Trace: tr, TAck: p.TAckBound(), TProg: p.TProgBound(),
			Inner: env, DiscardConsumed: discard,
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.New(sim.Config{
			Dual: d, Procs: simProcs,
			Sched: sched.Random{P: 0.5, Seed: 6},
			Env:   mon, Seed: 7, Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Run(40 * p.PhaseLen()) // long enough to fill and release a trace chunk
		return mon, tr, d, p.TAckBound(), p.TProgBound()
	}

	monDiscard, trDiscard, _, _, _ := run(true)
	monKeep, trKeep, d, tack, tprog := run(false)

	if trDiscard.Discarded() == 0 {
		t.Fatalf("run too short: no chunk was released (%d events)", trDiscard.Len())
	}
	if trDiscard.Len() != trKeep.Len() || trDiscard.RoundsRun != trKeep.RoundsRun ||
		trDiscard.Deliveries != trKeep.Deliveries {
		t.Fatalf("discarding changed the execution: %d/%d events, %d/%d rounds",
			trDiscard.Len(), trKeep.Len(), trDiscard.RoundsRun, trKeep.RoundsRun)
	}
	want := refCheck(d, trKeep, tack, tprog)
	reportsEquivalent(t, monDiscard.Report(), want)
	reportsEquivalent(t, monKeep.Report(), want)

	// The retained suffix stays addressable, and Check reads only it.
	if first := trDiscard.Discarded(); first < trDiscard.Len() {
		_ = trDiscard.At(first)
	}
	_ = Check(d, trDiscard, tack, tprog)
}
