// This file makes Model a sim.ShardedReceptionModel. Per-round preparation
// is a single pass over the transmitters — bucketing them per region, or
// stamping the listeners within their isolation range — and per-listener
// resolution, the dominant cost, touches only round-immutable state (the
// buckets or stamps, the placement, the powers), so the engine's worker pool
// can partition the listener range freely. Outcomes are computed listener by
// listener with no cross-listener state, so any partition produces
// bit-identical results to the sequential pass; parallel_test.go pins
// full-trace identity against the sequential driver at worker counts
// {1, 2, 7, GOMAXPROCS} under -race, for both resolvers.

package sinr

import "lbcast/internal/sim"

// PrepareRound implements sim.ShardedReceptionModel: it builds the round's
// region buckets when the bucketed path applies (positive Tolerance, a dense
// index and at least BucketedMinTx transmitters) and otherwise marks the
// exact resolver's candidate listeners. It always opts in to sharding.
func (m *Model) PrepareRound(t int, txs []int32) bool {
	m.roundBucketed = m.p.Tolerance > 0 && m.grid != nil && len(txs) >= BucketedMinTx
	switch {
	case m.roundBucketed:
		m.prepareBuckets(txs)
	case m.stencil != nil:
		m.markCandidates(txs)
	}
	return true
}

// ResolveRange implements sim.ShardedReceptionModel: listeners [lo, hi) are
// resolved against the state PrepareRound froze for this round. Concurrent
// calls on disjoint ranges are safe; each touches only out[lo:hi].
func (m *Model) ResolveRange(t int, txs []int32, out []int32, lo, hi int) {
	switch {
	case m.roundBucketed:
		n, total := len(txs), m.bucket.totalPow
		for u := lo; u < hi; u++ {
			out[u] = m.resolveOneBucketed(u, n, total)
		}
	default:
		for u := lo; u < hi; u++ {
			if m.stencil != nil && m.stamp[u] != m.round {
				out[u] = sim.NoTransmitter
				continue
			}
			out[u] = m.resolveOne(u, txs)
		}
	}
}

var _ sim.ShardedReceptionModel = (*Model)(nil)
