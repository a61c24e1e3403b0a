package main

// sinr-1e4: the registry's sinr-local policy at n = 10⁴ with every node a
// saturated sender. The engine resolves receptions through the policy's
// SINR model instead of the dual-graph scatter, so the sinr layer does most
// of the work. sinr-local builds its model with sinr.DefaultParams(), whose
// zero Tolerance selects the exact O(n·|txs|) resolver — not the bucketed
// resolver the scaling sweep's SINR rows measure.

import (
	"fmt"

	"lbcast/internal/core"
	"lbcast/internal/sim"
	"lbcast/internal/world"
)

const (
	sinrN      = 10_000
	sinrEps    = 0.2
	sinrRounds = 40 // per topology
	sinrPolicy = "sinr-local"
	// sinrTopologies is the number of topologies a repeat steps in turn,
	// drawn from seeds seed·3, seed·3+1 and seed·3+2. sinr-local transmits
	// with a probability set by Δ′, so one topology's transmissions per round
	// — and with them the exact resolver's cost — differ by ±10% from seed
	// to seed; the mean of three draws differs by less.
	sinrTopologies = 3
)

func runSinr(seed uint64, traced bool) (*rep, error) {
	return runSinrN(sinrN, sinrRounds, seed, traced)
}

// runSinrN builds sinrTopologies engines, then steps each for rounds rounds
// in turn.
func runSinrN(n, rounds int, seed uint64, traced bool) (*rep, error) {
	t0 := processCPU()
	clock := setupClock{}
	var tr *tracer
	if traced {
		tr = newTracer(traceStrideAll)
	}
	engines := make([]*sim.Engine, 0, sinrTopologies)
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	for k := range uint64(sinrTopologies) {
		e, err := newSinrEngine(n, seed*sinrTopologies+k, tr, clock)
		if err != nil {
			return nil, err
		}
		engines = append(engines, e)
	}
	r := &rep{traced: traced, setup: processCPU() - t0}
	next := 0
	r.timeLoop(rounds*len(engines), tr, func() {
		engines[next/rounds].Step()
		next++
	}, nil)
	total := rounds * len(engines)
	r.rounds, r.nodeRounds = int64(total), int64(total)*int64(n)
	for _, e := range engines {
		trace := e.Trace()
		if trace.Transmissions == 0 || trace.Deliveries == 0 {
			return nil, fmt.Errorf("sinr-1e4: degenerate run: %d transmissions, %d deliveries",
				trace.Transmissions, trace.Deliveries)
		}
		r.digest.Transmissions += int64(trace.Transmissions)
		r.digest.Deliveries += int64(trace.Deliveries)
		r.digest.Collisions += int64(trace.Collisions)
		r.digest.Events += int64(trace.Len())
		r.digest.Bcasts += int64(trace.KindCount(sim.EvBcast))
		r.digest.Acks += int64(trace.KindCount(sim.EvAck))
	}
	if tr != nil {
		d := r.digest
		r.layers = map[string]float64{
			"sim.self_ns":          tr.perRoundNs(layerSim),
			"sim.events_per_round": float64(d.Events) / float64(total),
			"sim.tx_per_round":     float64(d.Transmissions) / float64(total),
			"sinr.proc_ns":         tr.perRoundNs(layerSinrProc),
			"core.env_ns":          tr.perRoundNs(layerCoreEnv),
			"sinr.resolve_ns":      tr.perRoundNs(layerSinr),
			"sinr.blocked_frac":    ratio(d.Collisions, d.Deliveries+d.Collisions),
		}
		for k, v := range clock {
			r.layers[k] = v
		}
	}
	return r, nil
}

// newSinrEngine builds one topology's engine: the sweep topology for seed,
// sinr-local's services on every node, saturated by the environment.
func newSinrEngine(n int, seed uint64, tr *tracer, clock setupClock) (*sim.Engine, error) {
	var top *world.Topology
	if err := clock.time("dualgraph.build_s", func() (err error) {
		top, err = world.NewSweepTopology(n, seed, sinrEps)
		return err
	}); err != nil {
		return nil, err
	}
	var w *world.World
	if err := clock.time("world.new_s", func() error {
		policies, err := world.Select([]string{sinrPolicy})
		if err != nil {
			return err
		}
		w, err = world.New(top, policies, 1)
		return err
	}); err != nil {
		return nil, err
	}
	inst := w.Instances[0]
	svcs := make([]core.Service, n)
	procs := make([]sim.Process, n)
	senders := make([]int, n)
	_ = clock.time("core.proc_build_s", func() error {
		for u := range svcs {
			svcs[u] = inst.NewService(u)
			procs[u] = svcs[u]
			senders[u] = u
		}
		return nil
	})
	env := core.NewSaturatingEnv(svcs, senders)
	cfg := sim.Config{Dual: top.Dual, Procs: procs, Env: wrapEnv(env, tr, layerCoreEnv),
		Seed: world.EngineSeed(seed, 0), Driver: sim.DriverSequential}
	inst.Channel(&cfg, cfg.Seed)
	if cfg.Reception == nil {
		return nil, fmt.Errorf("sinr-1e4: policy %s carries no reception model", sinrPolicy)
	}
	if tr != nil {
		cfg.Procs = wrapProcs(procs, tr, layerSinrProc)
		cfg.Reception = wrapReception(cfg.Reception, tr)
	}
	var engine *sim.Engine
	err := clock.time("sim.new_s", func() (err error) {
		engine, err = sim.New(cfg)
		return err
	})
	return engine, err
}
