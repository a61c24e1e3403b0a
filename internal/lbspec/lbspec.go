package lbspec

import (
	"fmt"
	"math"
	"strings"

	"lbcast/internal/dualgraph"
	"lbcast/internal/sim"
)

// Report is the outcome of checking one trace, returned by Check and
// Monitor.Report.
type Report struct {
	// Violations of the deterministic conditions; empty means the trace
	// satisfies Timely Acknowledgement and Validity everywhere.
	Violations []string

	// Broadcasts counts completed broadcasts (bcast with matching ack).
	Broadcasts int
	// ReliableSuccesses counts completed broadcasts whose every reliable
	// neighbor produced the recv output before the ack.
	ReliableSuccesses int

	// ProgressOpportunities counts (node, phase) pairs where some reliable
	// neighbor was active throughout the phase; ProgressSuccesses counts
	// those where the node heard at least one message during the phase.
	ProgressOpportunities int
	ProgressSuccesses     int

	// Per-node accounting for the locality experiments.
	OppsByNode, SuccByNode []int

	// AckLatencies are the observed bcast→ack round counts.
	AckLatencies []int
	// FirstRecvLatencies are, per completed broadcast, the rounds from
	// bcast until the last reliable neighbor's recv (only for reliable
	// successes).
	FirstRecvLatencies []int
}

// ReliabilityRate returns the fraction of completed broadcasts delivered to
// all reliable neighbors before the ack (1 if there were none).
func (r *Report) ReliabilityRate() float64 {
	if r.Broadcasts == 0 {
		return 1
	}
	return float64(r.ReliableSuccesses) / float64(r.Broadcasts)
}

// ProgressRate returns the fraction of progress opportunities that
// succeeded (1 if there were none).
func (r *Report) ProgressRate() float64 {
	if r.ProgressOpportunities == 0 {
		return 1
	}
	return float64(r.ProgressSuccesses) / float64(r.ProgressOpportunities)
}

// Err returns an error summarising deterministic violations, or nil.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	show := r.Violations
	const maxShow = 5
	suffix := ""
	if len(show) > maxShow {
		suffix = fmt.Sprintf(" (and %d more)", len(show)-maxShow)
		show = show[:maxShow]
	}
	return fmt.Errorf("lbspec: %d violations: %s%s", len(r.Violations), strings.Join(show, "; "), suffix)
}

// Check verifies the trace of a static (churn-free) execution over the
// given dual graph against LB(tack, tprog, ·). It replays the trace round
// by round through a Monitor, exactly as the engine would have driven one,
// and returns the monitor's report with every violation retained. Events
// recorded past tr.RoundsRun are consumed in the final round; events
// released by tr.DiscardBefore are skipped. The trace is only read, so
// callers may keep using it afterwards.
func Check(d *dualgraph.Dual, tr *sim.Trace, tack, tprog int) *Report {
	m := newMonitor(MonitorConfig{Dual: d, Trace: tr, TAck: tack, TProg: tprog, MaxViolations: math.MaxInt})
	last := max(tr.RoundsRun, 1)
	next := tr.Discarded()
	m.seen = next
	for t := 1; t <= last; t++ {
		m.BeforeRound(t)
		for next < tr.Len() && (t == last || tr.At(next).Round <= t) {
			next++
		}
		m.advance(t, next)
	}
	return m.Report()
}
