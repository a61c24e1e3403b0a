package main

// lbcast-1e5: the public API at scale. Untraced repeats run exactly what a
// library user runs — lbcast.NewRandomGeometric and Network.Step — while
// traced repeats run lbcastComposition, which assembles the same network
// from the internal packages the way lbcast.go does, so decorators can sit
// at the bank and scheduler boundaries. TestLbcastCompositionMatchesAPI pins
// the two to identical outputs.

import (
	"fmt"
	"math"

	"lbcast"
	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

const (
	lbcastN       = 100_000
	lbcastEps     = 0.2
	lbcastR       = 1.5
	lbcastSchedP  = 0.5
	lbcastEvery   = 10 // every 10th node keeps one broadcast outstanding
	lbcastPhases  = 1  // whole phases; a phase is 746 rounds at seed 1
	lbcastPayload = "lb"
)

// sweepSide is the side of the constant-density sweep topology family.
func sweepSide(n int) float64 { return math.Max(4, math.Sqrt(float64(n)/4)) }

// lbcastCounts are the callback-side outputs of one lbcast run.
type lbcastCounts struct {
	bcasts, acks, recvs int64
	err                 error
}

func (c *lbcastCounts) digest(tx, del, col int) digest {
	return digest{Transmissions: int64(tx), Deliveries: int64(del), Collisions: int64(col),
		Events: c.bcasts + c.acks + c.recvs, Bcasts: c.bcasts, Acks: c.acks}
}

func runLbcast(seed uint64, traced bool) (*rep, error) {
	if traced {
		return runLbcastComposed(lbcastN, seed, lbcastPhases, newTracer(traceStrideAll))
	}
	return runLbcastAPI(lbcastN, seed, lbcastPhases)
}

// runLbcastAPI runs the workload through the public API.
func runLbcastAPI(n int, seed uint64, phases int) (*rep, error) {
	t0 := processCPU()
	side := sweepSide(n)
	nw, err := lbcast.NewRandomGeometric(n, side, side, lbcastR,
		lbcast.WithEpsilon(lbcastEps), lbcast.WithSeed(seed),
		lbcast.WithScheduler(lbcast.ScheduleRandom(lbcastSchedP, seed)))
	if err != nil {
		return nil, err
	}
	defer nw.Close()
	var c lbcastCounts
	bcast := func(u int) {
		if _, err := nw.Broadcast(u, lbcastPayload); err != nil && c.err == nil {
			c.err = err
		}
		c.bcasts++
	}
	nw.OnReceive(func(int, lbcast.Delivery) { c.recvs++ })
	nw.OnAck(func(u int, _ lbcast.MessageID) {
		c.acks++
		if u%lbcastEvery == 0 {
			bcast(u)
		}
	})
	for u := 0; u < n; u += lbcastEvery {
		bcast(u)
	}
	rounds := phases * nw.Schedule().PhaseRounds
	r := &rep{setup: processCPU() - t0}
	r.timeLoop(rounds, nil, nw.Step, nil)
	if c.err != nil {
		return nil, fmt.Errorf("lbcast: re-broadcast: %w", c.err)
	}
	tx, del, col := nw.Stats()
	r.rounds, r.nodeRounds = int64(rounds), int64(rounds)*int64(n)
	r.digest = c.digest(tx, del, col)
	return r, nil
}

// lbcastComposition is the public API's network (lbcast.go's assemble)
// built from the internal packages, with the bank and scheduler decorated
// when a tracer is given.
type lbcastComposition struct {
	engine *sim.Engine
	bank   *core.NodeStateBank
	params core.Params
	acked  map[sim.MsgID]bool
	counts lbcastCounts
}

func newLbcastComposition(n int, seed uint64, tr *tracer, clock setupClock) (*lbcastComposition, error) {
	side := sweepSide(n)
	var d *dualgraph.Dual
	if err := clock.time("dualgraph.build_s", func() (err error) {
		d, err = dualgraph.RandomGeometric(n, side, side, lbcastR, dualgraph.GreyUnreliable, xrand.New(seed))
		return err
	}); err != nil {
		return nil, err
	}
	c := &lbcastComposition{acked: make(map[sim.MsgID]bool)}
	if err := clock.time("core.bank_build_s", func() (err error) {
		c.params, err = core.DeriveParams(d.Delta(), d.DeltaPrime(), d.R, lbcastEps,
			core.WithSeedEveryKPhases(1))
		if err != nil {
			return err
		}
		c.bank = core.NewNodeStateBank(core.NewPhasePlan(c.params), n)
		for u := 0; u < n; u++ {
			node := c.bank.Node(u)
			node.SetOnRecv(func(core.Message, int) { c.counts.recvs++ })
			node.SetOnAck(func(m core.Message) {
				c.acked[m.ID] = true
				c.counts.acks++
				if u%lbcastEvery == 0 {
					c.bcast(u)
				}
			})
		}
		return nil
	}); err != nil {
		return nil, err
	}
	cfg := sim.Config{Dual: d, Procs: c.bank.Procs(), Bank: c.bank,
		Sched: sched.NewRandom(lbcastSchedP, seed), Seed: seed, Driver: sim.DriverSequential}
	if tr != nil {
		cfg.Bank = wrapBank(cfg.Bank, tr)
		cfg.Sched = wrapSched(cfg.Sched, tr)
	}
	if err := clock.time("sim.new_s", func() (err error) {
		c.engine, err = sim.New(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	for u := 0; u < n; u += lbcastEvery {
		c.bcast(u)
	}
	return c, nil
}

func (c *lbcastComposition) bcast(u int) {
	if _, err := c.bank.Node(u).Bcast(lbcastPayload); err != nil && c.counts.err == nil {
		c.counts.err = err
	}
	c.counts.bcasts++
}

func (c *lbcastComposition) digest() digest {
	tr := c.engine.Trace()
	return c.counts.digest(tr.Transmissions, tr.Deliveries, tr.Collisions)
}

// runLbcastComposed runs the workload over the composition; tr may be nil.
func runLbcastComposed(n int, seed uint64, phases int, tr *tracer) (*rep, error) {
	t0 := processCPU()
	clock := setupClock{}
	c, err := newLbcastComposition(n, seed, tr, clock)
	if err != nil {
		return nil, err
	}
	defer c.engine.Close()
	rounds := phases * c.params.PhaseLen()
	r := &rep{traced: tr != nil, setup: processCPU() - t0}
	r.timeLoop(rounds, tr, c.engine.Step, nil)
	if c.counts.err != nil {
		return nil, fmt.Errorf("lbcast: re-broadcast: %w", c.counts.err)
	}
	trace := c.engine.Trace()
	r.rounds, r.nodeRounds = int64(rounds), int64(rounds)*int64(n)
	r.digest = c.digest()
	if tr != nil {
		r.layers = map[string]float64{
			"sim.self_ns":                   tr.perRoundNs(layerSim),
			"sim.events_per_round":          float64(trace.Len()) / float64(rounds),
			"sim.tx_per_round":              float64(trace.Transmissions) / float64(rounds),
			"core.bank_tx_ns":               tr.perRoundNs(layerBankTx),
			"core.bank_rx_ns":               tr.perRoundNs(layerBankRx),
			"sched.ns":                      tr.perRoundNs(layerSched),
			"sched.edges_queried_per_round": float64(tr.schedQueried) / float64(tr.rounds),
			"sched.included_frac":           ratio(tr.schedIncluded, tr.schedQueried),
		}
		for k, v := range clock {
			r.layers[k] = v
		}
	}
	return r, nil
}
