// Command perfbench is the repository benchmark: it runs one named workload
// for a given seed and time budget, checks the outputs, and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) as the last
// line of standard output in one JSON object:
//
//	bash perfbench/run.sh --workload lbcast-1e5 --seed 1 --seconds 10 --trace 0
//
// A run repeats one deterministic unit of work — set up from scratch, then a
// fixed round budget — until the time budget is spent. Every repeat must
// produce the same output digest, traced or not; a mismatch or a failed
// workload check marks the run incorrect and exits non-zero. BENCHMARK.json
// at the repository root names the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// metric is one named, unit-carrying value of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced metrics with their units, in output order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"node_rounds_per_s", "1/s"},
	{"round_ms_p50", "ms"},
	{"round_ms_tail", "ms"},
	{"peak_rss_mb", "MB"},
	{"recv_fail_frac", "ratio"},
}

// perLayer lists the traced metrics with their units. Every traced run
// prints all of them; a layer a workload bypasses reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim.self_ns", "ns"},
	{"sim.events_per_round", "count"},
	{"sim.tx_per_round", "count"},
	{"core.bank_tx_ns", "ns"},
	{"core.bank_rx_ns", "ns"},
	{"core.proc_ns", "ns"},
	{"baseline.proc_ns", "ns"},
	{"sinr.proc_ns", "ns"},
	{"sched.ns", "ns"},
	{"sched.edges_queried_per_round", "count"},
	{"sched.included_frac", "ratio"},
	{"sinr.resolve_ns", "ns"},
	{"sinr.blocked_frac", "ratio"},
	{"workload.env_ns", "ns"},
	{"workload.offered", "count"},
	{"workload.dropped_frac", "ratio"},
	{"workload.mean_depth", "count"},
	{"workload.ack_miss_frac", "ratio"},
	{"core.env_ns", "ns"},
	{"churn.env_self_ns", "ns"},
	{"churn.events_applied", "count"},
	{"churn.patch_round_ms_p50", "ms"},
	{"lbspec.env_self_ns", "ns"},
	{"lbspec.events_consumed", "count"},
	{"lbspec.violations", "count"},
	{"lbspec.ack_miss_frac", "ratio"},
	{"world.engine_s.lbalg", "s"},
	{"world.engine_s.contention-uniform", "s"},
	{"world.engine_s.decay", "s"},
	{"world.fleet_idle_frac", "ratio"},
	{"world.finish_ms", "ms"},
	{"dualgraph.build_s", "s"},
	{"core.bank_build_s", "s"},
	{"core.proc_build_s", "s"},
	{"sim.new_s", "s"},
	{"workload.plan_s", "s"},
	{"churn.plan_s", "s"},
	{"world.new_s", "s"},
	{"lbspec.monitor_new_s", "s"},
	{"go.alloc_bytes_per_round", "B"},
	{"go.allocs_per_round", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_peak_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
}

// rep is one measured repeat: set up from scratch, run the workload's fixed
// round budget, check the outputs.
type rep struct {
	traced     bool
	setup      time.Duration   // process CPU time until the first round is ready
	loop       time.Duration   // the timed round loop
	nodeRounds int64           // simulated node-rounds in the loop
	rounds     int64           // engine rounds executed (summed over engines)
	steps      []time.Duration // CPU time of every round (threadCPU)
	digest     digest
	layers     map[string]float64 // traced repeats only
	mem        memDelta
}

// digest summarises a repeat's outputs. Repeats of one workload and seed
// must agree on it exactly, traced or not.
type digest struct {
	Transmissions, Deliveries, Collisions int64
	Events                                int64
	Bcasts, Acks                          int64
	Fingerprint                           uint64
	Violations                            int64
}

// bench is one named benchmark workload.
type bench struct {
	name string
	run  func(seed uint64, traced bool) (*rep, error)
}

var benches = []bench{
	{"lbcast-1e5", runLbcast},
	{"world-load", runWorldLoad},
	{"churn-soak", runChurnSoak},
	{"sinr-1e4", runSinr},
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "time budget of the measured repeats")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var wl *bench
	for i := range benches {
		if benches[i].name == *name {
			wl = &benches[i]
		}
	}
	if wl == nil {
		names := make([]string, len(benches))
		for i, w := range benches {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (have %v)", *name, names)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	traced := *trace == 1

	budget := time.Duration(*seconds * float64(time.Second))
	start := time.Now()
	var reps []*rep
	var failures []error
	rss := 0.0
	for i := 0; ; i++ {
		runtime.GC()
		r, err := wl.run(*seed, traced && i%2 == 1)
		if err != nil {
			failures = append(failures, fmt.Errorf("repeat %d: %w", i, err))
		} else {
			reps = append(reps, r)
			if rss == 0 {
				// The high-water mark is monotone within a process; reading it
				// after the first repeat makes it that of a fresh process that
				// ran the workload once, whatever number of repeats follows.
				rss = peakRSSMB()
			}
			fmt.Fprintf(stderr, "perfbench: repeat %d traced=%v setup %.3fs loop %.3fs %.4g node-rounds/s\n",
				i, r.traced, r.setup.Seconds(), r.loop.Seconds(), float64(r.nodeRounds)/r.loop.Seconds())
		}
		if i >= 1 && time.Since(start) >= budget {
			break
		}
	}
	for i, r := range reps {
		if r.digest != reps[0].digest {
			failures = append(failures, fmt.Errorf("repeat %d (traced=%v) digest %+v differs from repeat 0's %+v",
				i, r.traced, r.digest, reps[0].digest))
		}
	}
	res := result{Correct: len(failures) == 0, Failed: int64(len(failures)), Metrics: map[string]metric{}}
	for _, r := range reps {
		res.Attempted += r.rounds
	}
	res.Attempted = max(res.Attempted, 1)
	if len(reps) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %d repeats, digest %+v\n", wl.name, *seed, len(reps), reps[0].digest)
		if traced {
			res.Metrics = layerMetrics(reps)
		} else {
			res.Metrics = endToEndMetrics(reps, rss, stdout)
		}
	}
	for _, err := range failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return fmt.Errorf("%d check(s) failed", len(failures))
	}
	return nil
}

// endToEndMetrics reduces untraced repeats to the end-to-end metrics: setup
// and rate are medians over repeats, the round-time percentiles are taken
// over all repeats' rounds, each outcome share is the repeats' common value.
func endToEndMetrics(reps []*rep, rss float64, info io.Writer) map[string]metric {
	p, beyond := tailPercentile(len(reps[0].steps))
	var setups, rates, steps []float64
	for _, r := range reps {
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, float64(r.nodeRounds)/r.loop.Seconds())
		for _, d := range r.steps {
			steps = append(steps, float64(d.Nanoseconds())/1e6)
		}
	}
	sort.Float64s(steps)
	fmt.Fprintf(info, "round_ms_tail is the p%g of %d rounds, %d repeats of %d (%d of each repeat's rounds beyond it)\n",
		p, len(steps), len(reps), len(reps[0].steps), beyond)
	r0 := reps[0]
	values := map[string]float64{
		"setup_s":           median(setups),
		"node_rounds_per_s": median(rates),
		"round_ms_p50":      quantileSorted(steps, 50),
		"round_ms_tail":     quantileSorted(steps, p),
		"peak_rss_mb":       rss,
		"recv_fail_frac":    ratio(r0.digest.Collisions, r0.digest.Deliveries+r0.digest.Collisions),
	}
	m := map[string]metric{}
	for _, e := range endToEnd {
		m[e.name] = metric{values[e.name], e.unit}
	}
	return m
}

// layerMetrics reduces a traced run: per-layer values are medians over the
// traced repeats, runtime metrics medians over the untraced ones, and the
// tracing overhead compares the two sides' node-round rates.
func layerMetrics(reps []*rep) map[string]metric {
	values := map[string][]float64{}
	var tracedRate, plainRate []float64
	for _, r := range reps {
		rate := float64(r.nodeRounds) / r.loop.Seconds()
		if !r.traced {
			plainRate = append(plainRate, rate)
			for k, v := range r.mem.metrics() {
				values[k] = append(values[k], v)
			}
			continue
		}
		tracedRate = append(tracedRate, rate)
		for k, v := range r.layers {
			values[k] = append(values[k], v)
		}
	}
	m := map[string]metric{}
	for _, pl := range perLayer {
		v := 0.0
		if vs := values[pl.name]; len(vs) > 0 {
			v = median(vs)
		}
		m[pl.name] = metric{v, pl.unit}
	}
	if len(tracedRate) > 0 && len(plainRate) > 0 {
		m["trace.overhead_frac"] = metric{1 - median(tracedRate)/median(plainRate), "ratio"}
	}
	return m
}

// tailLadder is the percentile ladder the tail metric climbs. It stops at
// p95: above it the round-time distribution turns steep (phase starts,
// seed-agreement decodes, churn patches, GC). In churn-soak, p95, p97, p98,
// p99 and p99.5 are about 32, 37, 42, 60 and 114 µs, so p98 and p99 moved
// by 20–45% between runs while p95 holds.
var tailLadder = []float64{50, 75, 90, 95}

// tailPercentile returns the highest ladder percentile that leaves at least
// ten of n samples beyond it, and how many it leaves. n is one repeat's
// sample count, which is fixed per workload, so the percentile does not
// change with the number of repeats that fit the time budget.
func tailPercentile(n int) (p float64, beyond int) {
	p = tailLadder[0]
	beyond = n - int(math.Ceil(p/100*float64(n)))
	for _, q := range tailLadder {
		b := n - int(math.Ceil(q/100*float64(n)))
		if b < 10 {
			break
		}
		p, beyond = q, b
	}
	return p, beyond
}

// quantileSorted is the nearest-rank p-th percentile of ascending xs.
func quantileSorted(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// threadCPU is the CPU time the calling thread has used; a goroutine that
// reads it more than once must stay locked to its thread in between.
// processCPU is the CPU time of all the process's threads. Round and setup
// times come from these clocks, not from the wall clock: on a shared virtual
// machine the host takes the CPU away for milliseconds at a time (steal
// time), and each such stall lands whole in some round's or setup's wall
// time. With 20% steal on a 2-vCPU guest, the p95 of lbcast-1e5's wall round
// times read 2 to 2.7 times its quiet-host value; these clocks do not advance
// while the host holds the CPU.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTimeID) }

func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

// Clock ids from Linux's <time.h>.
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime(%d): %v", id, errno))
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// timeLoop runs and times a repeat's round loop: rounds calls of step, each
// timed on its own by threadCPU and, when traced, inside the tracer's round
// span. after, when set, sees each round's wall time.
func (r *rep) timeLoop(rounds int, tr *tracer, step func(), after func(time.Duration)) {
	r.steps = make([]time.Duration, 0, rounds)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	mem := startMem()
	loop := time.Now()
	cpu := threadCPU()
	for t := 1; t <= rounds; t++ {
		s := time.Now()
		if tr != nil {
			tr.beginRound(t)
		}
		step()
		if tr != nil {
			tr.endRound()
		}
		d := time.Since(s)
		next := threadCPU()
		r.steps = append(r.steps, next-cpu)
		cpu = next
		if after != nil {
			after(d)
		}
	}
	r.loop = time.Since(loop)
	r.mem = mem.finish(int64(rounds))
}

// setupClock accumulates the wall time of setup constructors by metric name.
type setupClock map[string]float64

func (c setupClock) time(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	c[name] += time.Since(t0).Seconds()
	return err
}
