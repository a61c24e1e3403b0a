package core

import (
	"fmt"

	"lbcast/internal/seedagree"
	"lbcast/internal/sim"
	"lbcast/internal/xrand"
)

// This file is the struct-of-arrays representation of LBAlg: one
// NodeStateBank owns the whole network's protocol state in flat per-field
// columns and steps contiguous node ranges per round through the engine's
// batch path (sim.ProcessBank). The per-node LBAlg remains the reference
// implementation — every method here is a field-by-field port of the
// corresponding lbalg.go method, and nodestatebank_test.go runs the two in
// lockstep over lossy executions comparing every transmit decision, payload,
// recv, ack and counter.
//
// Why columns: at n = 10⁵⁻⁶ the per-node structs are ~200 B apart on the
// heap, so a round's Transmit sweep takes one or two cache misses per node
// before any protocol work happens, plus two interface dispatches. The bank
// packs the per-round hot fields (position memo, state, flags, coin span
// header) into parallel arrays swept linearly, keeps the coin bytes in one
// slab indexed by a fixed stride, and leaves the cold pointer-shaped state
// (seed agreement instance, committed-seed buffers, dedupe sets, callbacks)
// in separate columns touched only at phase boundaries or on delivery.

// flag bits of NodeStateBank.flags — the four booleans of LBAlg packed into
// one byte per node.
const (
	bankSeedIdle       = 1 << iota // LBAlg.seedIdle
	bankCoinsValid                 // LBAlg.coins.valid
	bankSendingStarted             // LBAlg.sendingStarted
	bankHasPending                 // LBAlg.pending != nil
)

// NodeStateBank holds the protocol state of n LBAlg nodes in columns. It
// implements sim.ProcessBank; its per-node handles (Node) implement Service
// for the Init/Bcast/callback surface.
// Not safe for concurrent mutation of one node from two goroutines; the
// engine's range calls are disjoint, which is exactly the contract.
type NodeStateBank struct {
	plan *PhasePlan
	p    Params
	n    int

	// Hot columns, swept linearly by TransmitRange/ReceiveRange. Narrow
	// types are deliberate: a round index fits int32 for any feasible run
	// length, and state/flags are single bytes, so a node's whole hot row
	// is 21 bytes across the columns.
	memoT, memoPhase, memoPos []int32
	curPreLen                 []int32
	state                     []uint8
	flags                     []uint8
	phasesLeft                []int32
	coinsBehind               []int32

	// coins is the decoded-coin slab: node u's span is
	// coins[u*coinStride : u*coinStride+coinLen[u]], valid iff
	// flags[u]&bankCoinsValid. coinStride is the largest decode any phase
	// performs (the full phase length covers both Tprog and the Section 4.2
	// body-only phases).
	coins      []uint8
	coinLen    []int32
	coinStride int

	// Cold columns: touched at phase boundaries, deliveries, and the
	// Bcast/ack edges only.
	pending      []Message
	frame        []any
	envs         []*sim.NodeEnv
	seeds        []*seedagree.Alg
	committed    []*xrand.BitString
	committedBuf []*xrand.BitString
	raw          [][]uint64 // per-node word scratch for walkCoins' bulk path
	seen         []map[sim.MsgID]struct{}
	seq          []int32
	onAck        []func(Message)
	onRecv       []func(Message, int)

	participations, transmissions []int64

	// recordHears mirrors LBAlg.RecordHears, bank-wide (every consumer sets
	// it uniformly across nodes). On by default.
	recordHears bool

	// handles is the contiguous backing of the per-node Service handles, so
	// Node(u) hands out stable pointers without per-node allocations.
	handles []BankNode
}

var _ sim.ProcessBank = (*NodeStateBank)(nil)

// NewNodeStateBank creates the columnar state of n nodes over a shared
// phase plan, each node initialised exactly as NewLBAlgWithPlan initialises
// a fresh LBAlg.
func NewNodeStateBank(plan *PhasePlan, n int) *NodeStateBank {
	stride := plan.phaseLen // ≥ every BodyRounds value (Tprog and phaseLen)
	bk := &NodeStateBank{
		plan: plan, p: plan.params, n: n,
		memoT: make([]int32, n), memoPhase: make([]int32, n), memoPos: make([]int32, n),
		curPreLen:  make([]int32, n),
		state:      make([]uint8, n),
		flags:      make([]uint8, n),
		phasesLeft: make([]int32, n), coinsBehind: make([]int32, n),
		coins: make([]uint8, n*stride), coinLen: make([]int32, n), coinStride: stride,
		pending: make([]Message, n), frame: make([]any, n),
		envs: make([]*sim.NodeEnv, n), seeds: make([]*seedagree.Alg, n),
		committed: make([]*xrand.BitString, n), committedBuf: make([]*xrand.BitString, n),
		raw:  make([][]uint64, n),
		seen: make([]map[sim.MsgID]struct{}, n), seq: make([]int32, n),
		onAck: make([]func(Message), n), onRecv: make([]func(Message, int), n),
		participations: make([]int64, n), transmissions: make([]int64, n),
		recordHears: true,
		handles:     make([]BankNode, n),
	}
	pre := int32(plan.preambleLen(1))
	for u := 0; u < n; u++ {
		bk.state[u] = uint8(StateReceiving)
		bk.memoPhase[u] = 1
		bk.memoPos[u] = -1
		bk.curPreLen[u] = pre
		bk.seen[u] = make(map[sim.MsgID]struct{})
		bk.handles[u] = BankNode{bank: bk, u: int32(u)}
	}
	return bk
}

// Len returns the number of nodes the bank holds.
func (bk *NodeStateBank) Len() int { return bk.n }

// Params returns the schedule parameters shared by every node.
func (bk *NodeStateBank) Params() Params { return bk.p }

// Node returns node u's Service handle — the engine's Procs entry and the
// environment's Bcast/callback surface.
func (bk *NodeStateBank) Node(u int) *BankNode { return &bk.handles[u] }

// Procs returns the per-node handles as the engine's Procs slice.
func (bk *NodeStateBank) Procs() []sim.Process {
	procs := make([]sim.Process, bk.n)
	for u := range procs {
		procs[u] = &bk.handles[u]
	}
	return procs
}

// SetRecordHears toggles EvHear recording for every node (LBAlg.RecordHears).
func (bk *NodeStateBank) SetRecordHears(on bool) { bk.recordHears = on }

// TransmitRange implements sim.ProcessBank.
func (bk *NodeStateBank) TransmitRange(t, lo, hi int, v *sim.RoundView) {
	if v.Down != nil {
		for u := lo; u < hi; u++ {
			if v.Down[u] {
				v.Payloads[u], v.Transmit[u] = nil, false
				continue
			}
			v.Payloads[u], v.Transmit[u] = bk.transmit(u, t)
		}
		return
	}
	for u := lo; u < hi; u++ {
		v.Payloads[u], v.Transmit[u] = bk.transmit(u, t)
	}
}

// ReceiveRange implements sim.ProcessBank, resolving each node's outcome
// from the round view exactly as the engine's deliver does for per-node
// processes.
func (bk *NodeStateBank) ReceiveRange(t, lo, hi int, v *sim.RoundView) {
	t32 := int32(t)
	down := v.Down
	for u := lo; u < hi; u++ {
		if down != nil && down[u] {
			continue
		}
		if s := v.Rx[u]; !v.Transmit[u] && s.Stamp == t32 && s.Count == 1 {
			bk.receive(u, t, int(s.From), v.Payloads[s.From], true)
		} else {
			bk.receive(u, t, sim.NoTransmitter, nil, false)
		}
	}
}

// initNode is BankNode.Init's body: LBAlg.Init ported to columns.
func (bk *NodeStateBank) initNode(u int, env *sim.NodeEnv) {
	bk.envs[u] = env
	bk.seeds[u] = seedagree.NewAlgWithPlan(bk.plan.Seed, env.ID, env.Rng)
}

// advanceRound is LBAlg.advanceRound over columns: the position cursor's
// slow path shared by transmit and receive.
func (bk *NodeStateBank) advanceRound(u, t int) int {
	if t == int(bk.memoT[u])+1 {
		pos := int(bk.memoPos[u]) + 1
		if pos == bk.plan.phaseLen {
			pos = 0
			bk.memoPhase[u]++
			bk.curPreLen[u] = int32(bk.plan.preambleLen(int(bk.memoPhase[u])))
		}
		bk.memoPos[u] = int32(pos)
	} else {
		phase, pos := bk.plan.PhaseOf(t)
		bk.memoPhase[u], bk.memoPos[u] = int32(phase), int32(pos)
		bk.curPreLen[u] = int32(bk.plan.preambleLen(phase))
	}
	bk.memoT[u] = int32(t)
	return int(bk.memoPos[u])
}

// transmit is LBAlg.Transmit ported to columns, byte for byte: same memo
// fast path, same preamble dispatch, same body-round gating and private
// coin draws.
func (bk *NodeStateBank) transmit(u, t int) (any, bool) {
	pos := int(bk.memoPos[u]) + 1
	if t != int(bk.memoT[u])+1 || pos == bk.plan.phaseLen {
		pos = bk.advanceRound(u, t)
	} else {
		bk.memoT[u], bk.memoPos[u] = int32(t), int32(pos)
	}

	if pos == 0 {
		bk.beginPhase(u, int(bk.memoPhase[u]))
	}

	pre := int(bk.curPreLen[u])
	if pos < pre { // a RoundPreamble slot of this phase's table
		if bk.flags[u]&bankSeedIdle != 0 {
			return nil, false // decided, not advertising: a no-op round
		}
		seed := bk.seeds[u]
		payload, tx := seed.Transmit(pos + 1)
		if seed.Idle() {
			bk.flags[u] |= bankSeedIdle
		} else {
			bk.flags[u] &^= bankSeedIdle
		}
		return payload, tx
	}
	// A RoundBody slot with scratch index pos − curPreLen, exactly as
	// LBAlg.Transmit's hand-inlined bodyRound.
	f := bk.flags[u]
	if f&bankCoinsValid == 0 || State(bk.state[u]) != StateSending || f&bankHasPending == 0 {
		return nil, false
	}
	j := pos - pre
	if j >= int(bk.coinLen[u]) {
		return nil, false // out-of-order jump past the decoded span; fail closed
	}
	b := bk.coins[u*bk.coinStride+j]
	if b == 0 {
		return nil, false // non-participant round for this owner group
	}
	return bk.participate(u, int(b))
}

// beginPhase is LBAlg.beginPhase over columns.
func (bk *NodeStateBank) beginPhase(u, phase int) {
	if f := bk.flags[u]; f&bankHasPending != 0 && f&bankSendingStarted == 0 {
		bk.flags[u] |= bankSendingStarted
		bk.state[u] = uint8(StateSending)
		bk.phasesLeft[u] = int32(bk.p.Tack)
	}
	if bk.plan.RunsPreamble(phase) {
		bk.seeds[u].Reset()
		bk.flags[u] &^= bankSeedIdle | bankCoinsValid
		bk.committed[u] = nil
		bk.coinsBehind[u] = 0
	} else if bk.committed[u] != nil {
		rounds := bk.plan.BodyRounds(phase)
		if State(bk.state[u]) == StateSending {
			if bk.coinsBehind[u] > 0 {
				bk.plan.skipCoins(bk.committed[u], int(bk.coinsBehind[u]))
				bk.coinsBehind[u] = 0
			}
			bk.decodeInto(u, rounds)
		} else {
			bk.flags[u] &^= bankCoinsValid
			bk.coinsBehind[u] += int32(rounds)
		}
	}
}

// decodeInto is decodeCoins targeting node u's slab span: same walkCoins
// pass, same cursor advance, the bytes just land in the shared slab.
func (bk *NodeStateBank) decodeInto(u, rounds int) {
	off := u * bk.coinStride
	bk.plan.walkCoins(bk.committed[u], bk.coins[off:off+rounds], &bk.raw[u], rounds)
	bk.coinLen[u] = int32(rounds)
	bk.flags[u] |= bankCoinsValid
}

// participate is LBAlg.participate over columns.
func (bk *NodeStateBank) participate(u, b int) (any, bool) {
	bk.participations[u]++
	if bk.envs[u].Rng.Bits(b) != 0 {
		return nil, false
	}
	bk.transmissions[u]++
	return bk.frame[u], true
}

// receive is LBAlg.Receive ported to columns.
func (bk *NodeStateBank) receive(u, t, from int, payload any, ok bool) {
	pos := int(bk.memoPos[u])
	if t != int(bk.memoT[u]) {
		pos = bk.advanceRound(u, t)
	}

	pre := int(bk.curPreLen[u])
	if pos < pre { // a RoundPreamble slot of this phase's table
		if bk.flags[u]&bankSeedIdle == 0 {
			seed := bk.seeds[u]
			seed.Receive(pos+1, payload, ok)
			if seed.Idle() {
				bk.flags[u] |= bankSeedIdle
			} else {
				bk.flags[u] &^= bankSeedIdle
			}
		}
		if pos == pre-1 {
			bk.commitSeed(u)
		}
		return
	}

	// Body rounds: all states deliver first receptions as recv outputs.
	if ok {
		if dm, isData := payload.(DataMsg); isData {
			bk.deliver(u, t, from, dm.Msg)
		}
	}

	// End of phase: sending nodes consume one of their Tack phases.
	if pos == bk.plan.phaseLen-1 && State(bk.state[u]) == StateSending {
		bk.phasesLeft[u]--
		if bk.phasesLeft[u] <= 0 {
			bk.ack(u, t)
		}
	}
}

// commitSeed is LBAlg.commitSeed over columns.
func (bk *NodeStateBank) commitSeed(u int) {
	seed := bk.seeds[u]
	seed.Finalize() // defensive; Receive at Ts already finalizes
	d := seed.Decision()
	if bk.committedBuf[u] == nil {
		bk.committedBuf[u] = d.Seed.Clone()
	} else {
		bk.committedBuf[u].CopyFrom(d.Seed)
	}
	bk.committedBuf[u].Reset()
	bk.committed[u] = bk.committedBuf[u]
	bk.coinsBehind[u] = 0
	if State(bk.state[u]) == StateSending {
		bk.decodeInto(u, bk.plan.tprog)
	} else {
		bk.flags[u] &^= bankCoinsValid
		bk.coinsBehind[u] = int32(bk.plan.tprog)
	}
}

// deliver is LBAlg.deliver over columns.
func (bk *NodeStateBank) deliver(u, t, from int, m Message) {
	env := bk.envs[u]
	if bk.recordHears {
		env.Rec.Record(sim.Event{Round: t, Node: env.ID, Kind: sim.EvHear, From: from, MsgID: m.ID})
	}
	if _, dup := bk.seen[u][m.ID]; dup {
		return
	}
	bk.seen[u][m.ID] = struct{}{}
	env.Rec.Record(sim.Event{Round: t, Node: env.ID, Kind: sim.EvRecv, From: from, MsgID: m.ID})
	if fn := bk.onRecv[u]; fn != nil {
		fn(m, from)
	}
}

// ack is LBAlg.ack over columns.
func (bk *NodeStateBank) ack(u, t int) {
	m := bk.pending[u]
	bk.pending[u] = Message{}
	bk.frame[u] = nil
	bk.flags[u] &^= bankHasPending | bankSendingStarted
	bk.state[u] = uint8(StateReceiving)
	env := bk.envs[u]
	env.Rec.Record(sim.Event{Round: t, Node: env.ID, Kind: sim.EvAck, MsgID: m.ID})
	if fn := bk.onAck[u]; fn != nil {
		fn(m)
	}
}

// bcast is LBAlg.Bcast over columns.
func (bk *NodeStateBank) bcast(u int, payload any) (sim.MsgID, error) {
	if bk.flags[u]&bankHasPending != 0 {
		return 0, fmt.Errorf("core: node %d already broadcasting %v", bk.envs[u].ID, bk.pending[u].ID)
	}
	bk.seq[u]++
	m := Message{ID: sim.NewMsgID(bk.envs[u].ID, int(bk.seq[u])), Payload: payload}
	bk.pending[u] = m
	bk.flags[u] |= bankHasPending
	// Box the on-air frame once per broadcast, as LBAlg.Bcast does.
	bk.frame[u] = DataMsg{Msg: m}
	bk.flags[u] &^= bankSendingStarted
	// Round 0 is stamped with the current round by the trace drain.
	bk.envs[u].Rec.Record(sim.Event{Node: bk.envs[u].ID, Kind: sim.EvBcast, MsgID: m.ID, Payload: payload})
	return m.ID, nil
}

// BankNode is one node's Service handle into a NodeStateBank: the engine's
// Init/Procs unit and the environment's Bcast/callback surface. All state
// lives in the bank's columns; the handle is two words.
type BankNode struct {
	bank *NodeStateBank
	u    int32
}

var _ Service = (*BankNode)(nil)

// Init implements sim.Process.
func (h *BankNode) Init(env *sim.NodeEnv) { h.bank.initNode(int(h.u), env) }

// Transmit implements sim.Process (the lockstep oracle calls it; the engine
// goes through TransmitRange).
func (h *BankNode) Transmit(t int) (any, bool) { return h.bank.transmit(int(h.u), t) }

// Receive implements sim.Process.
func (h *BankNode) Receive(t, from int, payload any, ok bool) {
	h.bank.receive(int(h.u), t, from, payload, ok)
}

// Bcast implements Service.
func (h *BankNode) Bcast(payload any) (sim.MsgID, error) { return h.bank.bcast(int(h.u), payload) }

// Active implements Service.
func (h *BankNode) Active() bool { return h.bank.flags[h.u]&bankHasPending != 0 }

// ActiveMessage returns the message being broadcast, if Active.
func (h *BankNode) ActiveMessage() (Message, bool) {
	if h.bank.flags[h.u]&bankHasPending == 0 {
		return Message{}, false
	}
	return h.bank.pending[h.u], true
}

// SetOnAck implements Service.
func (h *BankNode) SetOnAck(fn func(Message)) { h.bank.onAck[h.u] = fn }

// SetOnRecv implements Service.
func (h *BankNode) SetOnRecv(fn func(Message, int)) { h.bank.onRecv[h.u] = fn }

// State returns the node's current phase state.
func (h *BankNode) State() State { return State(h.bank.state[h.u]) }

// Params returns the node's schedule parameters.
func (h *BankNode) Params() Params { return h.bank.p }

// BodyStats returns how many body rounds this node participated in and how
// many it transmitted in (E-RECV-PROB instrumentation).
func (h *BankNode) BodyStats() (participations, transmissions int) {
	return int(h.bank.participations[h.u]), int(h.bank.transmissions[h.u])
}
