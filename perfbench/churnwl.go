package main

// churn-soak: per-node LBAlg under churn with the online monitor, composed
// the way chaos.Run composes a dual-graph scenario with a random link
// scheduler (TestChurnCompositionMatchesChaos pins the two to the same
// report). Saturating senders at every 8th node, sched.Random(½) under a
// churn.FadeScheduler, a Poisson crash/recover and leave/join plan with one
// region fade, and lbspec.Monitor online. The run lasts past one t_ack so
// acknowledgement deadlines fire; the budget is fixed rather than derived
// from t_ack so that every seed does the same number of rounds.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"lbcast/internal/churn"
	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/geo"
	"lbcast/internal/lbspec"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

const (
	churnN           = 500
	churnEps         = 0.2
	churnSenderEvery = 8
	churnSchedP      = 0.5
	churnRounds      = 100_000 // round budget; longer when t_ack + 2 phases exceeds it
	churnStride      = 8       // traced repeats time every 8th round
)

// churnSpec is one churn-soak execution.
type churnSpec struct {
	dual       *dualgraph.Dual
	params     core.Params
	senders    []int
	schedP     float64
	schedSeed  uint64
	plan       *churn.Plan
	engineSeed uint64
	rounds     int
}

// churnRun is an assembled churn-soak engine.
type churnRun struct {
	engine  *sim.Engine
	inj     *churn.Injector
	mon     *lbspec.Monitor
	trace   *sim.Trace
	applied int64 // lifecycle events applied (OnDown + OnUp)
	patched bool  // a Leave/Join topology patch ran this round
}

// churnTopology builds the sweep-family dual graph and LBAlg parameters.
func churnTopology(n int, seed uint64) (*dualgraph.Dual, core.Params, error) {
	side := sweepSide(n)
	d, err := dualgraph.RandomGeometric(n, side, side, 1.5, dualgraph.GreyUnreliable, xrand.New(seed))
	if err != nil {
		return nil, core.Params{}, err
	}
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), d.R, churnEps)
	return d, p, err
}

// churnPlan draws the fault schedule with chaos.Generate's rates (half a
// crash and an eighth of a departure per node per run, outages of about half
// a phase and absences of about a phase) plus one fade epoch over the grid
// region of a random node for the second quarter of the run.
func churnPlan(d *dualgraph.Dual, rounds, phaseLen int, seed uint64) (*churn.Plan, error) {
	plan, err := churn.Poisson(churn.PoissonConfig{
		N: d.N(), Rounds: rounds, Seed: seed ^ 0xDA7A,
		CrashRate:    0.5 / float64(rounds),
		MeanDowntime: max(1, phaseLen/2),
		LeaveRate:    0.125 / float64(rounds),
		MeanAbsence:  phaseLen,
	})
	if err != nil {
		return nil, err
	}
	u := xrand.New(seed).Split(0xFADE).Intn(d.N())
	plan.Fades = []churn.Fade{{Start: rounds / 4, End: rounds / 2,
		Regions: []geo.RegionID{geo.RegionOf(d.Emb[u])}}}
	return plan, plan.Validate(d.N())
}

// newChurnRun assembles the engine; with a tracer, decorators go on every
// process (including restarted ones), the scheduler and each environment of
// the injector → monitor → saturating-sender chain.
func newChurnRun(spec churnSpec, tr *tracer, clock setupClock) (*churnRun, error) {
	d, p := spec.dual, spec.params
	n := d.N()
	c := &churnRun{trace: &sim.Trace{}}
	svcs := make([]core.Service, n)
	procs := make([]sim.Process, n)
	_ = clock.time("core.proc_build_s", func() error {
		for u := range svcs {
			svcs[u] = core.NewLBAlg(p)
			procs[u] = svcs[u]
		}
		return nil
	})
	if tr != nil {
		procs = wrapProcs(procs, tr, layerCoreProc)
	}
	restarted := func(u int, s core.Service) sim.Process {
		if tr == nil {
			return s
		}
		return &procWrap{in: s, tr: tr, l: layerCoreProc, u: u}
	}
	env := core.NewSaturatingEnv(svcs, spec.senders)
	if err := clock.time("lbspec.monitor_new_s", func() (err error) {
		c.mon, err = lbspec.NewMonitor(lbspec.MonitorConfig{
			Dual: d, Trace: c.trace, TAck: p.TAckBound(), TProg: p.TProgBound(),
			Inner: wrapEnv(env, tr, layerCoreEnv),
		})
		return err
	}); err != nil {
		return nil, err
	}

	var linkSched sim.LinkScheduler = sched.NewRandom(spec.schedP, spec.schedSeed)
	var fade *churn.FadeScheduler
	if len(spec.plan.Fades) > 0 {
		fade = churn.NewFadeScheduler(linkSched, d, spec.plan.Fades)
		linkSched = fade
	}
	var err error
	c.inj, err = churn.NewInjector(churn.InjectorConfig{
		Plan: spec.plan, Dual: d, Index: geo.BuildGridIndex(d.Emb),
		Policy: dualgraph.GreyUnreliable,
		Restart: func(u int) sim.Process {
			svcs[u] = core.NewLBAlg(p)
			return restarted(u, svcs[u])
		},
		Inner: wrapEnv(c.mon, tr, layerLbspec),
		Fade:  fade,
		OnTopology: func() error {
			c.patched = true
			return c.mon.TopologyPatched()
		},
		OnRestart: func(u int, _ sim.Process) { env.Rearm(u) },
		OnDown: func(t, u int) {
			c.applied++
			c.mon.NodeDown(t, u)
		},
		OnUp: func(t, u int) {
			c.applied++
			c.mon.NodeRestarted(t, u)
		},
	})
	if err != nil {
		return nil, err
	}
	if err := c.inj.Detach(); err != nil {
		return nil, err
	}
	cfg := sim.Config{Dual: d, Procs: procs, Env: wrapEnv(c.inj, tr, layerChurn), Sched: linkSched,
		Seed: spec.engineSeed, Driver: sim.DriverSequential, Trace: c.trace}
	if tr != nil {
		cfg.Sched = wrapSched(linkSched, tr)
	}
	if err := clock.time("sim.new_s", func() (err error) {
		c.engine, err = sim.New(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	c.inj.Attach(c.engine)
	if tr != nil {
		tr.down = c.engine.IsDown
	}
	return c, nil
}

func runChurnSoak(seed uint64, traced bool) (*rep, error) {
	return runChurn(churnN, seed, churnRounds, traced)
}

// runChurn runs at least minRounds rounds and at least two phases past one
// t_ack, so that acknowledgement deadlines fire.
func runChurn(n int, seed uint64, minRounds int, traced bool) (*rep, error) {
	t0 := processCPU()
	clock := setupClock{}
	var spec churnSpec
	if err := clock.time("dualgraph.build_s", func() (err error) {
		spec.dual, spec.params, err = churnTopology(n, seed)
		return err
	}); err != nil {
		return nil, err
	}
	p := spec.params
	spec.rounds = max(minRounds, p.TAckBound()+2*p.PhaseLen())
	for u := 0; u < n; u += churnSenderEvery {
		spec.senders = append(spec.senders, u)
	}
	spec.schedP, spec.schedSeed, spec.engineSeed = churnSchedP, seed, seed+101
	if err := clock.time("churn.plan_s", func() (err error) {
		spec.plan, err = churnPlan(spec.dual, spec.rounds, p.PhaseLen(), seed)
		return err
	}); err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer(churnStride)
	}
	c, err := newChurnRun(spec, tr, clock)
	if err != nil {
		return nil, err
	}
	defer c.engine.Close()
	rounds := spec.rounds
	r := &rep{traced: traced, setup: processCPU() - t0}
	var patchSteps []float64
	r.timeLoop(rounds, tr, c.engine.Step, func(d time.Duration) {
		if c.patched {
			patchSteps = append(patchSteps, float64(d.Nanoseconds())/1e6)
			c.patched = false
		}
	})
	if err := c.inj.Err(); err != nil {
		return nil, err
	}
	if v := c.mon.TotalViolations(); v != 0 {
		return nil, fmt.Errorf("churn-soak: %d LB invariant violations, first: %v", v, c.mon.Violations()[0])
	}
	due, missed := traceAckMisses(c.trace, p.TAckBound(), rounds)
	r.rounds, r.nodeRounds = int64(rounds), int64(rounds)*int64(n)
	r.digest = c.digest(due, missed)
	if tr != nil {
		sort.Float64s(patchSteps)
		r.layers = map[string]float64{
			"sim.self_ns":                   tr.perRoundNs(layerSim),
			"sim.events_per_round":          float64(c.trace.Len()) / float64(rounds),
			"sim.tx_per_round":              float64(c.trace.Transmissions) / float64(rounds),
			"core.proc_ns":                  tr.perRoundNs(layerCoreProc),
			"core.env_ns":                   tr.perRoundNs(layerCoreEnv),
			"sched.ns":                      tr.perRoundNs(layerSched),
			"sched.edges_queried_per_round": float64(tr.schedQueried) / float64(tr.rounds),
			"sched.included_frac":           ratio(tr.schedIncluded, tr.schedQueried),
			"churn.env_self_ns":             tr.perRoundNs(layerChurn),
			"churn.events_applied":          float64(c.applied),
			"churn.patch_round_ms_p50":      quantileSorted(patchSteps, 50),
			"lbspec.env_self_ns":            tr.perRoundNs(layerLbspec),
			"lbspec.events_consumed":        float64(c.trace.Len()),
			"lbspec.violations":             float64(c.mon.TotalViolations()),
			"lbspec.ack_miss_frac":          ratio(missed, due),
		}
		for k, v := range clock {
			r.layers[k] = v
		}
	}
	return r, nil
}

// digest reduces the run's outputs: channel statistics, the trace's event
// counts, the monitor's report counters and violation total, the lifecycle
// events applied, and the acknowledgement deadline misses.
func (c *churnRun) digest(due, missed int64) digest {
	rep := c.mon.Report()
	h := fnv.New64a()
	fmt.Fprintf(h, "%d;%d;%d;%d;%d;%d;%d", rep.Broadcasts, rep.ReliableSuccesses,
		rep.ProgressOpportunities, rep.ProgressSuccesses, c.applied, due, missed)
	return digest{
		Transmissions: int64(c.trace.Transmissions), Deliveries: int64(c.trace.Deliveries),
		Collisions: int64(c.trace.Collisions), Events: int64(c.trace.Len()),
		Bcasts: int64(c.trace.KindCount(sim.EvBcast)), Acks: int64(c.trace.KindCount(sim.EvAck)),
		Fingerprint: h.Sum64(), Violations: int64(c.mon.TotalViolations()),
	}
}

// traceAckMisses scans a trace for broadcasts whose ack deadline (bcast
// round + tack) falls inside a run of the given length, and counts those
// not acked by it. A broadcast lost to a crash never acks; a restarted node
// may reuse a message id, which closes the lost span it shadows.
func traceAckMisses(tr *sim.Trace, tack, rounds int) (due, missed int64) {
	type span struct{ start, acked int }
	var spans []span
	open := map[sim.MsgID]int{}
	for ev := range tr.Events() {
		switch ev.Kind {
		case sim.EvBcast:
			open[ev.MsgID] = len(spans)
			spans = append(spans, span{start: ev.Round, acked: -1})
		case sim.EvAck:
			if i, ok := open[ev.MsgID]; ok {
				spans[i].acked = ev.Round
				delete(open, ev.MsgID)
			}
		}
	}
	for _, s := range spans {
		deadline := s.start + tack
		if deadline > rounds {
			continue
		}
		due++
		if s.acked < 0 || s.acked > deadline {
			missed++
		}
	}
	return due, missed
}
