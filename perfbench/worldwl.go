package main

// world-load: the E-LOAD point at utilisation 1.0 through world.World.Run.
// Three policies share one topology and one round budget; each gets Poisson
// arrivals at one message per node per its own ack window into bounded
// drop-newest queues (the configuration of exp's E-LOAD rows, see
// internal/exp/loadexp.go), and the fleet runs the engines on two workers.
//
// The benchmark never drives Step here, so each engine's environment is
// fronted by loadEngine, which reads the engine thread's CPU clock at every
// environment boundary: BeforeRound(t+1) − BeforeRound(t) is Step t.

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"lbcast/internal/core"
	"lbcast/internal/sim"
	"lbcast/internal/workload"
	"lbcast/internal/world"
)

const (
	worldN        = 500
	worldEps      = 0.2
	worldWorkers  = 2
	worldRounds   = 20_000 // one shared budget for every policy
	worldLoad     = 1.0    // arrivals per node per the policy's ack window
	worldQueueCap = 8
	worldStride   = 8 // traced repeats time every 8th round
)

var worldPolicies = []string{"lbalg", "contention-uniform", "decay"}

// procLayer attributes a policy's per-node processes to their layer.
func procLayer(policy string) layer {
	if policy == "lbalg" {
		return layerCoreProc
	}
	return layerBaselineProc
}

// ackLedger mirrors one engine's traffic queues arrival by arrival so that
// every arrival's ack deadline can be judged: it sits between
// workload.Traffic and the services (Traffic calls Bcast and SetOnAck
// through it) and replays the queue admission rule — FIFO, drop-newest at
// capacity — on the same plan. Counts are cross-checked against Traffic's
// own metrics after the run.
type ackLedger struct {
	plan     *workload.Plan
	capacity int
	next     int       // next plan arrival not yet admitted
	queues   [][]int32 // per node: admitted arrival indices, FIFO
	inflight []int32   // per node: arrival index on the air, -1 idle
	sentAt   []int32   // per arrival: bcast round, -1 none
	ackedAt  []int32   // per arrival: ack round, -1 none
	dropped  []bool    // per arrival
	cur      int       // current round

	drops, bcasts, acks int64
}

func newAckLedger(plan *workload.Plan, capacity int) *ackLedger {
	l := &ackLedger{
		plan: plan, capacity: capacity,
		queues:   make([][]int32, plan.N),
		inflight: make([]int32, plan.N),
		sentAt:   make([]int32, len(plan.Arrivals)),
		ackedAt:  make([]int32, len(plan.Arrivals)),
		dropped:  make([]bool, len(plan.Arrivals)),
	}
	for u := range l.inflight {
		l.inflight[u] = -1
	}
	for i := range l.ackedAt {
		l.sentAt[i], l.ackedAt[i] = -1, -1
	}
	return l
}

// admit replays queue admission for every arrival due by round t. Arrivals
// only enter and Bcast only leaves, so admitting lazily before each Bcast
// reproduces Traffic's admit-then-dispatch order exactly.
func (l *ackLedger) admit(t int) {
	for ; l.next < len(l.plan.Arrivals) && l.plan.Arrivals[l.next].Round <= t; l.next++ {
		u := l.plan.Arrivals[l.next].Node
		if len(l.queues[u]) < l.capacity {
			l.queues[u] = append(l.queues[u], int32(l.next))
			continue
		}
		l.dropped[l.next] = true
		l.drops++
	}
}

// misses judges every arrival against its ack deadline in a run of the
// given length. A broadcast arrival is due at its bcast round + window and
// missed if not acked by then; a dropped arrival is due at its arrival
// round + window and always missed. Arrivals still queued at the end were
// never broadcast and are not judged.
func (l *ackLedger) misses(rounds, window int) (due, missed int64) {
	l.admit(rounds)
	for i, a := range l.plan.Arrivals {
		switch {
		case l.dropped[i]:
			if a.Round+window <= rounds {
				due++
				missed++
			}
		case l.sentAt[i] >= 0:
			deadline := int(l.sentAt[i]) + window
			if deadline > rounds {
				continue
			}
			due++
			if l.ackedAt[i] < 0 || int(l.ackedAt[i]) > deadline {
				missed++
			}
		}
	}
	return due, missed
}

// ledgerSvc is the service surface Traffic sees: Bcast and SetOnAck pass
// through the ledger, everything else goes straight to the service. The
// engine steps the unwrapped service.
type ledgerSvc struct {
	core.Service
	l *ackLedger
	u int
}

func (s *ledgerSvc) Bcast(payload any) (sim.MsgID, error) {
	l := s.l
	l.admit(l.cur)
	id, err := s.Service.Bcast(payload)
	if err != nil {
		return id, err
	}
	q := l.queues[s.u]
	l.inflight[s.u] = q[0]
	l.sentAt[q[0]] = int32(l.cur)
	l.queues[s.u] = q[1:]
	l.bcasts++
	return id, nil
}

func (s *ledgerSvc) SetOnAck(fn func(core.Message)) {
	s.Service.SetOnAck(func(m core.Message) {
		l := s.l
		if a := l.inflight[s.u]; a >= 0 {
			l.ackedAt[a] = int32(l.cur)
			l.inflight[s.u] = -1
			l.acks++
		}
		fn(m)
	})
}

// loadEngine fronts one engine's environment chain: it times rounds,
// keeps the ledger's clock, and opens the traced round span.
type loadEngine struct {
	inner   sim.Environment
	traffic *workload.Traffic
	ledger  *ackLedger
	tr      *tracer
	rounds  int
	window  int

	steps       []time.Duration // CPU time of every round (threadCPU)
	cpu         time.Duration   // threadCPU at the last round boundary
	first, last time.Time
	configure   time.Duration
}

// BeforeRound locks the engine's fleet goroutine to its thread from round 1
// to the last round's AfterRound, so that threadCPU differences between
// round boundaries measure this engine's rounds.
func (e *loadEngine) BeforeRound(t int) {
	if t == 1 {
		runtime.LockOSThread()
		e.first = time.Now()
		e.cpu = threadCPU()
	} else {
		e.endStep()
	}
	e.ledger.cur = t
	if e.tr != nil {
		e.tr.beginRound(t)
	}
	e.inner.BeforeRound(t)
}

func (e *loadEngine) AfterRound(t int) {
	e.inner.AfterRound(t)
	if e.tr != nil {
		e.tr.endRound()
	}
	if t == e.rounds {
		e.endStep()
		e.last = time.Now()
		runtime.UnlockOSThread()
	}
}

// endStep records the CPU time since the last round boundary as one round.
func (e *loadEngine) endStep() {
	now := threadCPU()
	e.steps = append(e.steps, now-e.cpu)
	e.cpu = now
}

func runWorldLoad(seed uint64, traced bool) (*rep, error) {
	return runWorld(worldN, worldRounds, seed, traced)
}

func runWorld(n, rounds int, seed uint64, traced bool) (*rep, error) {
	t0 := processCPU()
	clock := setupClock{}
	var top *world.Topology
	if err := clock.time("dualgraph.build_s", func() (err error) {
		top, err = world.NewSweepTopology(n, seed, worldEps)
		return err
	}); err != nil {
		return nil, err
	}
	var w *world.World
	if err := clock.time("world.new_s", func() error {
		policies, err := world.Select(worldPolicies)
		if err != nil {
			return err
		}
		w, err = world.New(top, policies, worldWorkers)
		return err
	}); err != nil {
		return nil, err
	}
	plans := make([]*workload.Plan, len(w.Policies))
	if err := clock.time("workload.plan_s", func() error {
		for i, inst := range w.Instances {
			var err error
			plans[i], err = workload.Poisson(workload.PoissonConfig{
				N: n, Rounds: rounds, Rate: worldLoad / float64(inst.AckWindow),
				Seed: seed ^ math.Float64bits(worldLoad),
			})
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	engines := make([]*loadEngine, len(w.Policies))
	var setup, finish time.Duration
	digests := make([]digest, len(w.Policies))
	// Runtime deltas span the whole World.Run: the fleet owns the loop.
	mem := startMem()
	runStart := time.Now()
	err := w.Run(world.Hooks{
		Rounds: func(int) int { return rounds },
		Configure: func(i int, p world.Policy, inst *world.Instance, cfg *sim.Config) error {
			c0 := time.Now()
			le, err := configureLoadEngine(i, p, inst, cfg, plans[i], seed, traced, clock)
			if err != nil {
				return err
			}
			le.rounds, le.window = rounds, inst.AckWindow
			le.steps = make([]time.Duration, 0, rounds)
			le.configure = time.Since(c0)
			engines[i] = le
			return nil
		},
		// World.Run attaches every engine on this goroutine and then starts
		// the fleet: setup ends with the last Attach.
		Attach: func(i int, _ world.Policy, _ *sim.Engine) error {
			if i == len(engines)-1 {
				setup = processCPU() - t0
			}
			return nil
		},
		Finish: func(i int, p world.Policy, inst *world.Instance, e *sim.Engine) error {
			f0 := time.Now()
			defer func() { finish += time.Since(f0) }()
			digests[i] = loadDigest(engines[i], e.Trace())
			return engines[i].check()
		},
	})
	r := &rep{traced: traced, layers: map[string]float64{}}
	r.mem = mem.finish(int64(rounds * len(engines)))
	if err != nil {
		return nil, err
	}

	first, last := engines[0].first, engines[0].last
	var configure, engineSum time.Duration
	h := fnv.New64a()
	for i, le := range engines {
		if le.first.Before(first) {
			first = le.first
		}
		if le.last.After(last) {
			last = le.last
		}
		configure += le.configure
		engineSum += le.last.Sub(le.first)
		r.steps = append(r.steps, le.steps...)
		d := digests[i]
		r.digest.Transmissions += d.Transmissions
		r.digest.Deliveries += d.Deliveries
		r.digest.Collisions += d.Collisions
		r.digest.Events += d.Events
		r.digest.Bcasts += d.Bcasts
		r.digest.Acks += d.Acks
		fmt.Fprintf(h, "%d;", d.Fingerprint)
	}
	r.digest.Fingerprint = h.Sum64()
	r.setup = setup
	r.loop = last.Sub(first)
	r.rounds = int64(rounds * len(engines))
	r.nodeRounds = r.rounds * int64(n)
	if traced {
		r.layers["sim.events_per_round"] = float64(r.digest.Events) / float64(rounds)
		r.layers["sim.tx_per_round"] = float64(r.digest.Transmissions) / float64(rounds)
		clock["sim.new_s"] = (first.Sub(runStart) - configure).Seconds()
		for k, v := range clock {
			r.layers[k] = v
		}
		for k, v := range worldLayers(w, engines, rounds) {
			r.layers[k] = v
		}
		makespan := last.Sub(first)
		r.layers["world.fleet_idle_frac"] = 1 - engineSum.Seconds()/(float64(worldWorkers)*makespan.Seconds())
		r.layers["world.finish_ms"] = float64(finish.Nanoseconds()) / 1e6
	}
	return r, nil
}

// configureLoadEngine fills policy i's engine configuration the way E-LOAD
// does (services behind per-node queues fed by the plan, the policy's
// channel keyed to the engine seed, the traffic harness as environment),
// with the ledger in front of the services and, when traced, decorators on
// the processes, the scheduler and the environment.
func configureLoadEngine(i int, p world.Policy, inst *world.Instance, cfg *sim.Config,
	plan *workload.Plan, seed uint64, traced bool, clock setupClock) (*loadEngine, error) {

	n := plan.N
	engineSeed := world.EngineSeed(seed, i)
	le := &loadEngine{ledger: newAckLedger(plan, worldQueueCap)}
	if traced {
		le.tr = newTracer(worldStride)
	}
	svcs := make([]core.Service, n)
	procs := make([]sim.Process, n)
	c0 := time.Now()
	for u := 0; u < n; u++ {
		svc := inst.NewService(u)
		procs[u] = svc
		svcs[u] = &ledgerSvc{Service: svc, l: le.ledger, u: u}
	}
	build := time.Since(c0)
	tr, err := workload.NewTraffic(workload.Config{
		Plan: plan, Services: svcs,
		Capacity: worldQueueCap, Policy: workload.DropNewest,
		LatencyCap: plan.Rounds,
	})
	if err != nil {
		return nil, err
	}
	le.traffic = tr
	le.inner = tr
	cfg.Procs = procs
	cfg.Env = le
	cfg.Seed = engineSeed
	inst.Channel(cfg, engineSeed)
	if traced {
		clock["core.proc_build_s"] += build.Seconds()
		cfg.Procs = wrapProcs(procs, le.tr, procLayer(p.Name))
		cfg.Sched = wrapSched(cfg.Sched, le.tr)
		le.inner = wrapEnv(tr, le.tr, layerWorkload)
	}
	return le, nil
}

// check cross-checks the ledger's replay against Traffic's own counters.
func (e *loadEngine) check() error {
	m := e.traffic.Metrics()
	e.ledger.admit(e.rounds)
	if e.ledger.drops != int64(m.Dropped) || e.ledger.bcasts != int64(m.Bcasts) || e.ledger.acks != int64(m.Acks) {
		return fmt.Errorf("world-load: ledger drops/bcasts/acks %d/%d/%d, traffic %d/%d/%d",
			e.ledger.drops, e.ledger.bcasts, e.ledger.acks, m.Dropped, m.Bcasts, m.Acks)
	}
	if m.Offered != m.Accepted+m.Dropped {
		return fmt.Errorf("world-load: offered %d != accepted %d + dropped %d", m.Offered, m.Accepted, m.Dropped)
	}
	return nil
}

// loadDigest reduces one engine's outputs: channel statistics, trace event
// count, traffic counters and fingerprint, and the ledger's deadline misses.
func loadDigest(e *loadEngine, tr *sim.Trace) digest {
	m := e.traffic.Metrics()
	due, missed := e.ledger.misses(e.rounds, e.window)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d;%d;%d", m.Fingerprint(), due, missed)
	return digest{
		Transmissions: int64(tr.Transmissions), Deliveries: int64(tr.Deliveries),
		Collisions: int64(tr.Collisions), Events: int64(tr.Len()),
		Bcasts: int64(m.Bcasts), Acks: int64(m.Acks), Fingerprint: h.Sum64(),
	}
}

// worldLayers sums the engines' per-round layer times (the engines share
// the round budget, so sums are per shared round) and reads the workload
// layer's outcomes.
func worldLayers(w *world.World, engines []*loadEngine, rounds int) map[string]float64 {
	out := map[string]float64{}
	var queried, included, offered, dropped, due, missed int64
	var depthSum int64
	for i, le := range engines {
		tr := le.tr
		name := w.Policies[i].Name
		out["sim.self_ns"] += tr.perRoundNs(layerSim)
		out["core.proc_ns"] += tr.perRoundNs(layerCoreProc)
		out["baseline.proc_ns"] += tr.perRoundNs(layerBaselineProc)
		out["sched.ns"] += tr.perRoundNs(layerSched)
		out["workload.env_ns"] += tr.perRoundNs(layerWorkload)
		out["sched.edges_queried_per_round"] += float64(tr.schedQueried) / float64(max(tr.rounds, 1))
		out["world.engine_s."+name] = le.last.Sub(le.first).Seconds()
		queried += tr.schedQueried
		included += tr.schedIncluded
		m := le.traffic.Metrics()
		offered += int64(m.Offered)
		dropped += int64(m.Dropped)
		depthSum += m.DepthSum
		d, ms := le.ledger.misses(rounds, le.window)
		due += d
		missed += ms
	}
	out["sched.included_frac"] = ratio(included, queried)
	out["workload.offered"] = float64(offered)
	out["workload.dropped_frac"] = ratio(dropped, offered)
	out["workload.mean_depth"] = float64(depthSum) / float64(rounds*len(engines))
	out["workload.ack_miss_frac"] = ratio(missed, due)
	return out
}
