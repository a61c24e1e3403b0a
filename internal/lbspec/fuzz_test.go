package lbspec

import (
	"slices"
	"sort"
	"testing"

	"lbcast/internal/sim"
)

// maxFuzzEvents bounds the events decoded from one fuzz input: enough for
// every message on pathDual to be broadcast, heard, received and acked.
const maxFuzzEvents = 24

// decodeFuzzTrace turns fuzz input into an engine-shaped trace on pathDual.
// Three header bytes give t_ack = 1 + data[0]%24, t_prog = data[1]%8 (0
// disables progress) and data[2]%16 idle rounds after the last event. Each
// following three bytes [a, b, c] are one event: the round advances by a%4
// (rounds start at 1 and never decrease), the kind is (a/4)%4 — bcast, ack,
// recv or hear — and the message is m(b%3, 1+(b/3)%2). A bcast happens at
// the message's source; an ack, recv or hear happens at node c%3. Bytes
// past maxFuzzEvents events are ignored, which keeps the fuzzer's input
// minimisation short.
func decodeFuzzTrace(data []byte) (tr *sim.Trace, tack, tprog int) {
	if len(data) < 3 {
		return &sim.Trace{RoundsRun: 1}, 1, 0
	}
	tack, tprog = 1+int(data[0]%24), int(data[1]%8)
	idle := int(data[2] % 16)
	kinds := [...]sim.EventKind{sim.EvBcast, sim.EvAck, sim.EvRecv, sim.EvHear}
	var evs []sim.Event
	round := 1
	for rec := data[3:min(len(data), 3+3*maxFuzzEvents)]; len(rec) >= 3; rec = rec[3:] {
		a, b, c := rec[0], rec[1], rec[2]
		round += int(a % 4)
		src := int(b % 3)
		ev := sim.Event{Round: round, Kind: kinds[(a/4)%4], MsgID: sim.NewMsgID(src, 1+int(b/3)%2)}
		if ev.Kind == sim.EvBcast {
			ev.Node = src
		} else {
			ev.Node = int(c % 3)
		}
		if ev.Kind == sim.EvRecv || ev.Kind == sim.EvHear {
			ev.From = src
		}
		evs = append(evs, ev)
	}
	// The engine drains a round's bcast inputs before anything else the
	// round produces. Traces where a recv precedes its own bcast within
	// one round are therefore excluded: the monitor, consuming in trace
	// order, sees a reception of a message not yet broadcast, while the
	// oracle, which collects every span before checking receptions, sees
	// a reception inside the span — a disagreement no engine trace can
	// produce.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Round != evs[j].Round {
			return evs[i].Round < evs[j].Round
		}
		return evs[i].Kind == sim.EvBcast && evs[j].Kind != sim.EvBcast
	})
	tr = &sim.Trace{RoundsRun: round + idle}
	for _, ev := range evs {
		tr.Record(ev)
	}
	return tr, tack, tprog
}

// FuzzCheckMatchesOracle is the differential test of Check — a replay
// through Monitor — against the whole-trace oracle refCheck. On every
// trace the two must reach the same verdict; on clean traces they must
// also agree on every count and on the latency multisets.
func FuzzCheckMatchesOracle(f *testing.F) {
	d := pathDual(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, tack, tprog := decodeFuzzTrace(data)
		got := Check(d, tr, tack, tprog)
		want := refCheck(d, tr, tack, tprog)
		if (got.Err() == nil) != (want.Err() == nil) {
			t.Fatalf("verdicts differ (t_ack=%d, t_prog=%d):\nCheck: %v\noracle: %v\ntrace: %v",
				tack, tprog, got.Err(), want.Err(), slices.Collect(tr.Events()))
		}
		if got.Err() == nil {
			reportStatsEqual(t, got, want)
		}
	})
}
