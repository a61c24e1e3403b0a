package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"lbcast/internal/chaos"
	"lbcast/internal/churn"
	"lbcast/internal/core"
	"lbcast/internal/dualgraph"
	"lbcast/internal/sched"
	"lbcast/internal/sim"
	"lbcast/internal/sinr"
	"lbcast/internal/xrand"
)

// Fakes implementing every subset of the optional engine interfaces.
type (
	fakeSched   struct{}
	fakeBatch   struct{}
	fakeSparse  struct{}
	fakeAware   struct{}
	fakeModel   struct{}
	fakeSharded struct{}
	fakeBank    struct{}
	fakeFlusher struct{}
)

func (fakeSched) Included(int, int) bool                         { return false }
func (fakeBatch) IncludedBatch(int, []bool)                      {}
func (fakeSparse) Uniform(int) (bool, bool)                      { return false, true }
func (fakeSparse) IncludedFor(int, []int32, []bool)              {}
func (fakeAware) ObserveTransmitters(int, []bool)                {}
func (fakeModel) Resolve(int, []int32, []int32)                  {}
func (fakeSharded) PrepareRound(int, []int32) bool               { return false }
func (fakeSharded) ResolveRange(int, []int32, []int32, int, int) {}
func (fakeBank) TransmitRange(int, int, int, *sim.RoundView)     {}
func (fakeBank) ReceiveRange(int, int, int, *sim.RoundView)      {}
func (fakeFlusher) FlushRound(int, *sim.Trace)                   {}

// schedInterfaces reports which optional scheduler interfaces s implements.
func schedInterfaces(s sim.LinkScheduler) [3]bool {
	_, b := s.(sim.BatchLinkScheduler)
	_, sp := s.(sim.SparseLinkScheduler)
	_, a := s.(sim.TransmitterAware)
	return [3]bool{b, sp, a}
}

// TestDecoratorsExposeSameInterfaces pins decorator faithfulness: a wrapper
// implements exactly the optional interfaces its inner value implements, so
// the engine's type assertions take the same path traced as untraced.
func TestDecoratorsExposeSameInterfaces(t *testing.T) {
	tr := newTracer(1)
	d, err := dualgraph.RandomGeometric(40, 4, 4, 1.5, dualgraph.GreyUnreliable, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := sched.NewAdaptive(d, 5)
	if err != nil {
		t.Fatal(err)
	}
	scheds := map[string]sim.LinkScheduler{
		"plain": fakeSched{},
		"batch": struct {
			fakeSched
			fakeBatch
		}{},
		"sparse": struct {
			fakeSched
			fakeSparse
		}{},
		"aware": struct {
			fakeSched
			fakeAware
		}{},
		"batch+sparse": struct {
			fakeSched
			fakeBatch
			fakeSparse
		}{},
		"batch+aware": struct {
			fakeSched
			fakeBatch
			fakeAware
		}{},
		"sparse+aware": struct {
			fakeSched
			fakeSparse
			fakeAware
		}{},
		"batch+sparse+aware": struct {
			fakeSched
			fakeBatch
			fakeSparse
			fakeAware
		}{},
		"sched.Random":          sched.NewRandom(0.5, 1),
		"sched.Adaptive":        adaptive,
		"churn.FadeScheduler":   churn.NewFadeScheduler(sched.NewRandom(0.5, 1), d, nil),
		"churn.FadeScheduler/0": churn.NewFadeScheduler(fakeSched{}, d, nil),
	}
	for name, s := range scheds {
		if got, want := schedInterfaces(wrapSched(s, tr)), schedInterfaces(s); got != want {
			t.Errorf("scheduler %s: wrapper implements batch/sparse/aware %v, inner %v", name, got, want)
		}
	}

	model, err := sinr.NewModel(d.Emb, sinr.UniformPower(1), sinr.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]sim.ReceptionModel{
		"plain": fakeModel{},
		"sharded": struct {
			fakeModel
			fakeSharded
		}{},
		"sinr.Model": model,
	}
	for name, m := range models {
		_, got := wrapReception(m, tr).(sim.ShardedReceptionModel)
		_, want := m.(sim.ShardedReceptionModel)
		if got != want {
			t.Errorf("reception model %s: wrapper sharded %v, inner %v", name, got, want)
		}
	}

	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), d.R, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	banks := map[string]sim.ProcessBank{
		"plain": fakeBank{},
		"flusher": struct {
			fakeBank
			fakeFlusher
		}{},
		"core.NodeStateBank": core.NewNodeStateBank(core.NewPhasePlan(p), d.N()),
	}
	for name, b := range banks {
		_, got := wrapBank(b, tr).(sim.RoundFlusher)
		_, want := b.(sim.RoundFlusher)
		if got != want {
			t.Errorf("bank %s: wrapper flusher %v, inner %v", name, got, want)
		}
	}
}

// runEngine steps a configuration and returns its full event log plus the
// channel statistics.
func runEngine(t *testing.T, cfg sim.Config, tr *tracer, rounds int) ([]sim.Event, [3]int) {
	t.Helper()
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	(&rep{}).timeLoop(rounds, tr, e.Step, nil)
	trace := e.Trace()
	return trace.AppendEvents(nil), [3]int{trace.Transmissions, trace.Deliveries, trace.Collisions}
}

// TestDecoratedEnginesMatch runs small engines through every decorator and
// checks the executions are identical to undecorated ones: sequential
// engines traced every round, and worker-pool engines (whose sharded SINR
// resolution and parallel scatter call the decorators from pool workers)
// with a tracer that never samples.
func TestDecoratedEnginesMatch(t *testing.T) {
	const n, rounds, seed = 300, 400, 11
	d, err := dualgraph.RandomGeometric(n, sweepSide(n), sweepSide(n), 1.5, dualgraph.GreyUnreliable, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.DeriveParams(d.Delta(), d.DeltaPrime(), d.R, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	model, err := sinr.NewModel(d.Emb, sinr.UniformPower(1), sinr.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	senders := []int{0, 7, 19, 42, 100, 150, 222}
	build := func(channel string, tr *tracer) (sim.Config, error) {
		svcs := make([]core.Service, n)
		procs := make([]sim.Process, n)
		for u := range svcs {
			svcs[u] = core.NewLBAlg(p)
			procs[u] = svcs[u]
		}
		cfg := sim.Config{Dual: d, Procs: procs, Env: core.NewSaturatingEnv(svcs, senders), Seed: seed}
		switch channel {
		case "sinr":
			cfg.Reception = model
		case "fade":
			cfg.Sched = churn.NewFadeScheduler(sched.NewRandom(0.5, seed), d, nil)
		case "adaptive":
			a, err := sched.NewAdaptive(d, 3)
			if err != nil {
				return cfg, err
			}
			cfg.Sched = a
		}
		if tr != nil {
			cfg.Procs = wrapProcs(procs, tr, layerCoreProc)
			cfg.Env = wrapEnv(cfg.Env, tr, layerCoreEnv)
			if cfg.Sched != nil {
				cfg.Sched = wrapSched(cfg.Sched, tr)
			}
			if cfg.Reception != nil {
				cfg.Reception = wrapReception(cfg.Reception, tr)
			}
		}
		return cfg, nil
	}
	for _, channel := range []string{"sinr", "fade", "adaptive"} {
		for _, driver := range []sim.Driver{sim.DriverSequential, sim.DriverWorkerPool} {
			plain, err := build(channel, nil)
			if err != nil {
				t.Fatal(err)
			}
			plain.Driver, plain.Workers = driver, 2
			wantEv, wantStats := runEngine(t, plain, nil, rounds)

			stride := 1
			if driver != sim.DriverSequential {
				stride = 0 // decorators forward untimed on pool workers
			}
			tr := newTracer(stride)
			traced, err := build(channel, tr)
			if err != nil {
				t.Fatal(err)
			}
			traced.Driver, traced.Workers = driver, 2
			gotEv, gotStats := runEngine(t, traced, tr, rounds)
			if gotStats != wantStats || !reflect.DeepEqual(gotEv, wantEv) {
				t.Errorf("%s/driver %d: decorated run diverged: stats %v vs %v, %d vs %d events",
					channel, driver, gotStats, wantStats, len(gotEv), len(wantEv))
			}
			if wantStats[0] == 0 || wantStats[1] == 0 {
				t.Errorf("%s/driver %d: degenerate run %v", channel, driver, wantStats)
			}
			if stride == 1 && tr.rounds != rounds {
				t.Errorf("%s: traced %d rounds, want %d", channel, tr.rounds, rounds)
			}
		}
	}
}

// TestLbcastCompositionMatchesAPI pins the traced lbcast-1e5 composition to
// the public API: same channel statistics, broadcasts, receptions and acks,
// traced or not. The small network runs long enough for acks to trigger
// the re-broadcast path.
func TestLbcastCompositionMatchesAPI(t *testing.T) {
	for _, tc := range []struct{ n, phases int }{{2000, 2}, {40, 0}} {
		phases := tc.phases
		if phases == 0 {
			c, err := newLbcastComposition(tc.n, 5, nil, setupClock{})
			if err != nil {
				t.Fatal(err)
			}
			phases = c.params.Tack + 3
		}
		want, err := runLbcastAPI(tc.n, 5, phases)
		if err != nil {
			t.Fatal(err)
		}
		if tc.phases == 0 && want.digest.Acks == 0 {
			t.Errorf("n=%d: no acks in %d phases; the re-broadcast path is not exercised", tc.n, phases)
		}
		for _, tr := range []*tracer{nil, newTracer(1)} {
			got, err := runLbcastComposed(tc.n, 5, phases, tr)
			if err != nil {
				t.Fatal(err)
			}
			if got.digest != want.digest {
				t.Errorf("n=%d traced=%v: composition digest %+v, public API %+v", tc.n, tr != nil, got.digest, want.digest)
			}
		}
	}
}

// TestChurnCompositionMatchesChaos pins the churn-soak composition to
// chaos.Run on the same scenario: same monitor report and violation total,
// traced or not. The run lasts past one t_ack, so broadcasts complete.
func TestChurnCompositionMatchesChaos(t *testing.T) {
	const n, seed, senders = 60, 9, 30
	d, p, err := churnTopology(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	phases := p.Tack + 3
	rounds := phases * p.PhaseLen()
	plan, err := churnPlan(d, rounds, p.PhaseLen(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Events) == 0 {
		t.Fatal("plan has no lifecycle events")
	}
	sc := &chaos.Scenario{Schema: chaos.SchemaV1, Seed: seed, N: n, Phases: phases, Eps: churnEps,
		Model: chaos.ModelDualgraph, Sched: chaos.SchedRandom, SchedP: churnSchedP, Senders: senders, Plan: plan}
	want, err := chaos.Run(sc, chaos.RunOptions{NoEarlyExit: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*tracer{nil, newTracer(2)} {
		d, p, err := churnTopology(n, seed) // patched in place by each run
		if err != nil {
			t.Fatal(err)
		}
		spec := churnSpec{dual: d, params: p, senders: firstN(senders), schedP: churnSchedP,
			schedSeed: seed, plan: plan, engineSeed: seed + 101, rounds: rounds}
		c, err := newChurnRun(spec, tr, setupClock{})
		if err != nil {
			t.Fatal(err)
		}
		(&rep{}).timeLoop(rounds, tr, c.engine.Step, nil)
		if err := c.inj.Err(); err != nil {
			t.Fatal(err)
		}
		if got := c.mon.Report(); !reflect.DeepEqual(got, want.Report) || c.mon.TotalViolations() != want.Total {
			t.Errorf("traced=%v: composition report %+v (%d violations), chaos.Run %+v (%d)",
				tr != nil, got, c.mon.TotalViolations(), want.Report, want.Total)
		}
		if c.applied == 0 || want.Report.Broadcasts == 0 {
			t.Errorf("traced=%v: degenerate run: %d lifecycle events, %d broadcasts", tr != nil, c.applied, want.Report.Broadcasts)
		}
		t.Logf("traced=%v: %d rounds, %d lifecycle events, %d broadcasts", tr != nil, rounds, c.applied, want.Report.Broadcasts)
	}
}

// TestWorkloadDigestsTracedUntraced runs each workload at small size and
// checks that repeats and traced runs reproduce the untraced digest, and
// that traced runs report their layers.
func TestWorkloadDigestsTracedUntraced(t *testing.T) {
	cases := map[string]func(traced bool) (*rep, error){
		"world-load": func(traced bool) (*rep, error) { return runWorld(80, 3000, 2, traced) },
		"churn-soak": func(traced bool) (*rep, error) { return runChurn(60, 2, 0, traced) },
		"sinr-1e4":   func(traced bool) (*rep, error) { return runSinrN(400, 12, 2, traced) },
	}
	layer := map[string]string{"world-load": "baseline.proc_ns", "churn-soak": "churn.env_self_ns", "sinr-1e4": "sinr.resolve_ns"}
	for name, run := range cases {
		var digests []digest
		for _, traced := range []bool{false, false, true} {
			r, err := run(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			digests = append(digests, r.digest)
			if traced && !(r.layers[layer[name]] > 0) {
				t.Errorf("%s: traced run reports %s = %v", name, layer[name], r.layers[layer[name]])
			}
		}
		if digests[1] != digests[0] || digests[2] != digests[0] {
			t.Errorf("%s: digests differ across repeats/tracing: %+v", name, digests)
		}
		if digests[0].Deliveries == 0 || digests[0].Events == 0 {
			t.Errorf("%s: degenerate digest %+v", name, digests[0])
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric tables
// printed by the benchmark in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, b := range benches {
		want = append(want, b.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, want)
	}
	for _, c := range []struct {
		name string
		got  []struct{ Name, Unit string }
		want []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i].Name != c.want[i].name || c.got[i].Unit != c.want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", c.name, i,
					c.got[i].Name, c.got[i].Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{40, 75, 10}, {746, 95, 37}, {20000, 95, 1000}, {5, 50, 2}} {
		if p, b := tailPercentile(c.n); p != c.p || b != c.beyond {
			t.Errorf("tailPercentile(%d) = p%v with %d beyond, want p%v with %d", c.n, p, b, c.p, c.beyond)
		}
	}
}

// TestThreadCPU pins the round and setup clocks: the thread clock advances
// with the thread's work and stands still while it sleeps, and the process
// clock counts at least that thread's work.
func TestThreadCPU(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	time.Sleep(50 * time.Millisecond)
	c1, p1 := threadCPU(), processCPU()
	w := time.Now()
	x := 0
	for time.Since(w) < 20*time.Millisecond {
		x++
	}
	c2, p2 := threadCPU(), processCPU()
	if slept := c1 - c0; slept > 10*time.Millisecond {
		t.Errorf("a 50ms sleep advanced the thread CPU clock by %v", slept)
	}
	if spun := c2 - c1; spun < 2*time.Millisecond {
		t.Errorf("20ms of spinning (%d iterations) advanced the thread CPU clock by %v", x, spun)
	}
	if p2-p1 < c2-c1 {
		t.Errorf("the process CPU clock advanced by %v, less than its spinning thread's %v", p2-p1, c2-c1)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sinr-1e4", "--trace", "2"},
		{"--workload", "sinr-1e4", "--seconds", "0"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// firstN returns nodes 0..k−1, chaos.Run's sender set.
func firstN(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}
