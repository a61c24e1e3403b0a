package main

// This file is the benchmark's tracing layer. Spans are recorded at layer
// boundaries from outside the library: every decorator below wraps one of
// the engine's plug-in interfaces (sim.ProcessBank, sim.Process,
// sim.LinkScheduler, sim.ReceptionModel, sim.Environment), times the call
// into the wrapped layer, and forwards it unchanged. Nothing inside the
// library is instrumented, so a traced execution is the same execution —
// the workloads check that traced and untraced digests are identical.
//
// One tracer serves one engine, which the sequential driver steps from a
// single goroutine, so the tracer needs no locking. Spans nest on a stack;
// a layer's self time is its span minus the spans of the layers it called.

import (
	"time"

	"lbcast/internal/sim"
)

// layer names a timed layer boundary.
type layer int

const (
	layerSim          layer = iota // the engine's Step (root span)
	layerBankTx                    // core.NodeStateBank.TransmitRange
	layerBankRx                    // core.NodeStateBank.ReceiveRange
	layerCoreProc                  // per-node core.LBAlg Transmit/Receive
	layerBaselineProc              // per-node baseline Transmit/Receive
	layerSinrProc                  // per-node sinr.LocalBcast Transmit/Receive
	layerSched                     // link scheduler queries
	layerSinr                      // reception model resolution
	layerWorkload                  // workload.Traffic environment hooks
	layerChurn                     // churn.Injector environment hooks
	layerLbspec                    // lbspec.Monitor environment hooks
	layerCoreEnv                   // core.SaturatingEnv environment hooks
	numLayers
)

// frame is one open span.
type frame struct {
	l     layer
	start time.Duration
	child time.Duration
}

// tracer accumulates span self times and boundary counters for one engine
// over its sampled rounds.
type tracer struct {
	base   time.Time
	stride int  // sample every stride-th round; 0 never samples
	on     bool // the current round is sampled
	stack  []frame

	self   [numLayers]time.Duration
	rounds int // sampled rounds

	// Per-node phase spans (see procWrap): nodes is the process count and
	// down, when set, reports crashed nodes, which the engine skips.
	nodes    int
	down     func(u int) bool
	procOpen bool
	procLast int

	// Counters recorded at the scheduler boundary, over sampled rounds.
	schedQueried, schedIncluded int64
}

// traceStrideAll makes a tracer time every round.
const traceStrideAll = 1

func newTracer(stride int) *tracer {
	return &tracer{base: time.Now(), stride: stride, stack: make([]frame, 0, 8)}
}

func (tr *tracer) now() time.Duration { return time.Since(tr.base) }

// beginRound opens round t's root span when t is a sampled round.
func (tr *tracer) beginRound(t int) {
	tr.on = tr.stride > 0 && t%tr.stride == 0
	if tr.on {
		tr.begin(layerSim)
	}
}

// endRound closes the root span opened by beginRound.
func (tr *tracer) endRound() {
	if tr.on {
		tr.end()
		tr.rounds++
		tr.on = false
	}
}

func (tr *tracer) begin(l layer) {
	tr.stack = append(tr.stack, frame{l: l, start: tr.now()})
}

func (tr *tracer) end() {
	f := tr.stack[len(tr.stack)-1]
	tr.stack = tr.stack[:len(tr.stack)-1]
	d := tr.now() - f.start
	tr.self[f.l] += d - f.child
	if len(tr.stack) > 0 {
		tr.stack[len(tr.stack)-1].child += d
	}
}

// perRoundNs returns layer l's self time per sampled round in nanoseconds.
func (tr *tracer) perRoundNs(l layer) float64 {
	if tr.rounds == 0 {
		return 0
	}
	return float64(tr.self[l].Nanoseconds()) / float64(tr.rounds)
}

// --- sim.ProcessBank ---

type bankWrap struct {
	in sim.ProcessBank
	tr *tracer
}

func (b *bankWrap) TransmitRange(t, lo, hi int, v *sim.RoundView) {
	if !b.tr.on {
		b.in.TransmitRange(t, lo, hi, v)
		return
	}
	b.tr.begin(layerBankTx)
	b.in.TransmitRange(t, lo, hi, v)
	b.tr.end()
}

func (b *bankWrap) ReceiveRange(t, lo, hi int, v *sim.RoundView) {
	if !b.tr.on {
		b.in.ReceiveRange(t, lo, hi, v)
		return
	}
	b.tr.begin(layerBankRx)
	b.in.ReceiveRange(t, lo, hi, v)
	b.tr.end()
}

// flusherPart forwards sim.RoundFlusher untimed: the bulk flush is the
// engine's trace append, which the sim layer's self time accounts for.
type flusherPart struct{ f sim.RoundFlusher }

func (p flusherPart) FlushRound(t int, tr *sim.Trace) { p.f.FlushRound(t, tr) }

// wrapBank decorates a process bank, exposing sim.RoundFlusher exactly when
// the wrapped bank implements it (the engine type-asserts it at sim.New).
func wrapBank(in sim.ProcessBank, tr *tracer) sim.ProcessBank {
	w := &bankWrap{in: in, tr: tr}
	if f, ok := in.(sim.RoundFlusher); ok {
		return struct {
			*bankWrap
			flusherPart
		}{w, flusherPart{f}}
	}
	return w
}

// --- sim.Process ---

// procWrap times the per-node protocol phases. Timing every call would cost
// more than a node's Transmit does at n = 500, so the wrappers time each
// phase as one span instead: the first node called opens it and the last
// live node closes it. The sequential driver calls the nodes of a phase
// back to back in ascending order, so the span covers exactly the phase's
// per-node dispatch and protocol work.
type procWrap struct {
	in sim.Process
	tr *tracer
	l  layer
	u  int
}

func (p *procWrap) Init(env *sim.NodeEnv) { p.in.Init(env) }

func (p *procWrap) Transmit(t int) (any, bool) {
	if !p.tr.on {
		return p.in.Transmit(t)
	}
	p.tr.procEnter(p.l)
	payload, tx := p.in.Transmit(t)
	p.tr.procExit(p.u)
	return payload, tx
}

func (p *procWrap) Receive(t, from int, payload any, ok bool) {
	if !p.tr.on {
		p.in.Receive(t, from, payload, ok)
		return
	}
	p.tr.procEnter(p.l)
	p.in.Receive(t, from, payload, ok)
	p.tr.procExit(p.u)
}

// procEnter opens the phase span at the phase's first node.
func (tr *tracer) procEnter(l layer) {
	if tr.procOpen {
		return
	}
	tr.procOpen = true
	tr.procLast = tr.nodes - 1
	if tr.down != nil {
		for tr.procLast > 0 && tr.down(tr.procLast) {
			tr.procLast--
		}
	}
	tr.begin(l)
}

// procExit closes the phase span after the phase's last live node.
func (tr *tracer) procExit(u int) {
	if u == tr.procLast {
		tr.procOpen = false
		tr.end()
	}
}

// wrapProcs decorates every per-node process, attributing its phases to l.
func wrapProcs(procs []sim.Process, tr *tracer, l layer) []sim.Process {
	tr.nodes = len(procs)
	out := make([]sim.Process, len(procs))
	for u, p := range procs {
		out[u] = &procWrap{in: p, tr: tr, l: l, u: u}
	}
	return out
}

// --- sim.LinkScheduler ---

type schedWrap struct {
	in     sim.LinkScheduler
	batch  sim.BatchLinkScheduler
	sparse sim.SparseLinkScheduler
	aware  sim.TransmitterAware
	tr     *tracer
}

func (s *schedWrap) Included(t, edge int) bool {
	if !s.tr.on {
		return s.in.Included(t, edge)
	}
	s.tr.begin(layerSched)
	v := s.in.Included(t, edge)
	s.tr.end()
	s.tr.schedQueried++
	if v {
		s.tr.schedIncluded++
	}
	return v
}

// countIncluded folds one answered edge subset into the counters.
func (s *schedWrap) countIncluded(out []bool) {
	s.tr.schedQueried += int64(len(out))
	for _, v := range out {
		if v {
			s.tr.schedIncluded++
		}
	}
}

type batchPart struct{ w *schedWrap }

func (p batchPart) IncludedBatch(t int, mask []bool) {
	s := p.w
	if !s.tr.on {
		s.batch.IncludedBatch(t, mask)
		return
	}
	s.tr.begin(layerSched)
	s.batch.IncludedBatch(t, mask)
	s.tr.end()
	s.countIncluded(mask)
}

type sparsePart struct{ w *schedWrap }

func (p sparsePart) Uniform(t int) (bool, bool) {
	s := p.w
	if !s.tr.on {
		return s.sparse.Uniform(t)
	}
	s.tr.begin(layerSched)
	v, ok := s.sparse.Uniform(t)
	s.tr.end()
	return v, ok
}

// IncludedFor may run on scatter workers under the worker-pool driver; the
// benchmark drives sequential engines, where it runs on the engine's
// goroutine like every other span.
func (p sparsePart) IncludedFor(t int, edges []int32, out []bool) {
	s := p.w
	if !s.tr.on {
		s.sparse.IncludedFor(t, edges, out)
		return
	}
	s.tr.begin(layerSched)
	s.sparse.IncludedFor(t, edges, out)
	s.tr.end()
	s.countIncluded(out[:len(edges)])
}

type awarePart struct{ w *schedWrap }

func (p awarePart) ObserveTransmitters(t int, transmitting []bool) {
	s := p.w
	if !s.tr.on {
		s.aware.ObserveTransmitters(t, transmitting)
		return
	}
	s.tr.begin(layerSched)
	s.aware.ObserveTransmitters(t, transmitting)
	s.tr.end()
}

// wrapSched decorates a link scheduler, exposing exactly the optional fast
// paths the wrapped scheduler implements — sim.BatchLinkScheduler,
// sim.SparseLinkScheduler and sim.TransmitterAware — so the engine's type
// assertions pick the same resolution path traced as untraced.
func wrapSched(in sim.LinkScheduler, tr *tracer) sim.LinkScheduler {
	w := &schedWrap{in: in, tr: tr}
	w.batch, _ = in.(sim.BatchLinkScheduler)
	w.sparse, _ = in.(sim.SparseLinkScheduler)
	w.aware, _ = in.(sim.TransmitterAware)
	b, s, a := batchPart{w}, sparsePart{w}, awarePart{w}
	switch hasB, hasS, hasA := w.batch != nil, w.sparse != nil, w.aware != nil; {
	case hasB && hasS && hasA:
		return struct {
			*schedWrap
			batchPart
			sparsePart
			awarePart
		}{w, b, s, a}
	case hasB && hasS:
		return struct {
			*schedWrap
			batchPart
			sparsePart
		}{w, b, s}
	case hasB && hasA:
		return struct {
			*schedWrap
			batchPart
			awarePart
		}{w, b, a}
	case hasS && hasA:
		return struct {
			*schedWrap
			sparsePart
			awarePart
		}{w, s, a}
	case hasB:
		return struct {
			*schedWrap
			batchPart
		}{w, b}
	case hasS:
		return struct {
			*schedWrap
			sparsePart
		}{w, s}
	case hasA:
		return struct {
			*schedWrap
			awarePart
		}{w, a}
	}
	return w
}

// --- sim.ReceptionModel ---

type recvWrap struct {
	in sim.ReceptionModel
	tr *tracer
}

func (r *recvWrap) Resolve(t int, txs []int32, out []int32) {
	if !r.tr.on {
		r.in.Resolve(t, txs, out)
		return
	}
	r.tr.begin(layerSinr)
	r.in.Resolve(t, txs, out)
	r.tr.end()
}

// shardedPart forwards sim.ShardedReceptionModel. PrepareRound runs on the
// engine's goroutine and is timed; ResolveRange runs on pool workers under
// the worker-pool driver and is forwarded untimed (the benchmark's engines
// are sequential and never call it).
type shardedPart struct {
	w *recvWrap
	s sim.ShardedReceptionModel
}

func (p shardedPart) PrepareRound(t int, txs []int32) bool {
	if !p.w.tr.on {
		return p.s.PrepareRound(t, txs)
	}
	p.w.tr.begin(layerSinr)
	ok := p.s.PrepareRound(t, txs)
	p.w.tr.end()
	return ok
}

func (p shardedPart) ResolveRange(t int, txs []int32, out []int32, lo, hi int) {
	p.s.ResolveRange(t, txs, out, lo, hi)
}

// wrapReception decorates a reception model, exposing
// sim.ShardedReceptionModel exactly when the wrapped model implements it.
func wrapReception(in sim.ReceptionModel, tr *tracer) sim.ReceptionModel {
	w := &recvWrap{in: in, tr: tr}
	if s, ok := in.(sim.ShardedReceptionModel); ok {
		return struct {
			*recvWrap
			shardedPart
		}{w, shardedPart{w, s}}
	}
	return w
}

// --- sim.Environment ---

type envWrap struct {
	in sim.Environment
	tr *tracer
	l  layer
}

func (e *envWrap) BeforeRound(t int) {
	if !e.tr.on {
		e.in.BeforeRound(t)
		return
	}
	e.tr.begin(e.l)
	e.in.BeforeRound(t)
	e.tr.end()
}

func (e *envWrap) AfterRound(t int) {
	if !e.tr.on {
		e.in.AfterRound(t)
		return
	}
	e.tr.begin(e.l)
	e.in.AfterRound(t)
	e.tr.end()
}

// wrapEnv decorates an environment; nil tracers leave it unwrapped, which
// is how the untraced compositions share code with the traced ones.
func wrapEnv(in sim.Environment, tr *tracer, l layer) sim.Environment {
	if tr == nil {
		return in
	}
	return &envWrap{in: in, tr: tr, l: l}
}
