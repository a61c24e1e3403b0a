// This file implements the region-bucketed SINR resolver: the near-linear
// replacement for the exact O(n·|txs|) resolution that kept the SINR layer
// off the n = 10⁵ sweep. Transmitters are bucketed per grid region
// (geo.GridIndex, the spatial index shared with dual graph construction and
// validation) and every listener accumulates interference ring by ring
// outward from its own region. Four stopping rules bound the work:
//
//  1. Silence, exactly: once every unseen transmitter is provably below the
//     decode floor β·N and the strongest seen one is too, the listener hears
//     silence — no approximation involved.
//  2. Blocked, exactly: once the accumulated interference alone already
//     defeats the best possible strongest transmitter (seen or unseen), the
//     outcome is Blocked regardless of everything not yet scanned.
//  3. Decode, exactly: once no unseen transmitter can outvie the strongest
//     seen one and even the maximum possible remaining interference cannot
//     break its decode inequality, the outcome is that transmitter.
//  4. Truncation, within tolerance: when no exact rule fires, scanning stops
//     as soon as the maximum possible remaining contribution falls to
//     Tolerance/(1+β).
//
// For rule 4 the truncation error ε on the interference sum satisfies
// |ε| ≤ Tolerance/(1+β). The decisions compare bestPw against β·N (error
// ≤ ε) and (1+β)·bestPw against β·(N+sum) (error ≤ (1+β)·|ε| ≤ Tolerance),
// so any listener whose exact decision margin exceeds Tolerance resolves
// identically to the exact resolver; bucketed_test.go pins both the
// tolerance-zero equivalence and this margin bound.
//
// Listeners that exhaust the ring rules (rare: they sit near the decode
// boundary) switch to one pass over the occupied transmitter regions
// (resolveFar): each far region is either accumulated exactly or replaced by
// the midpoint of its contribution interval, choosing the midpoint only when
// the cell's half-interval fits its proportional share of the scaled
// tolerance budget — so the total far-field error provably stays within the
// budget — and only when the cell provably cannot contain a decodable
// transmitter. That keeps the worst case at O(occupied tx regions + nearby
// transmitters) per listener instead of O(|txs|).

package sinr

import (
	"math"

	"lbcast/internal/geo"
	"lbcast/internal/sim"
)

// BucketedMinTx is the transmitter count below which bucketing cannot beat
// the exact scan (the per-round bucket build alone costs O(|txs|)).
const BucketedMinTx = 32

// farPassMinRing and farPassMaxRing frame the switch from ring expansion to
// the occupied-region pass for a still-undecided listener: never before the
// isolation neighborhood is fully exact (min), always once the ring-distance
// tail bound has tightened enough for rule 3 to have caught the
// strong-signal listeners (max), and in between as soon as the square ring
// area outgrows the occupied-region list (sparse rounds switch early).
const (
	farPassMinRing = 8
	farPassMaxRing = 32
)

// invPowSq returns d^{−α} from a squared distance, with the near-field
// clamp applied. The common integer exponents use their closed forms — the
// generic math.Pow dominated the resolver's profile — so the bucketed path's
// powers are algebraically equal to the exact resolver's Gain but not
// guaranteed bit-identical; the equivalence contract is outcome-level.
func (m *Model) invPowSq(d2 float64) float64 {
	if d2 < m.minDist2 {
		d2 = m.minDist2
	}
	switch m.powMode {
	case 2:
		return 1 / d2
	case 3:
		return 1 / (d2 * math.Sqrt(d2))
	case 4:
		return 1 / (d2 * d2)
	default:
		return math.Pow(math.Sqrt(d2), -m.p.Alpha)
	}
}

// bucketScratch is the reusable per-round state of the bucketed resolver.
// After prepareBuckets it is read-only for the rest of the round, which is
// what lets per-listener resolution shard across engine workers (see
// PrepareRound/ResolveRange in parallel.go).
type bucketScratch struct {
	cellPow  []float64 // per region: total power of this round's transmitters
	cellTx   [][]int32 // per region: this round's transmitters, ascending
	occupied []int32   // regions holding transmitters this round, in bucketing order
	totalPow float64   // total power of this round's transmitters
}

func newBucketScratch(gi *geo.GridIndex) *bucketScratch {
	return &bucketScratch{
		cellPow: make([]float64, gi.Len()),
		cellTx:  make([][]int32, gi.Len()),
	}
}

// prepareBuckets fills the region buckets for one round's transmitter set.
// It assumes m.grid is non-nil; callers gate on that.
func (m *Model) prepareBuckets(txs []int32) {
	s := m.bucket
	for _, ri := range s.occupied {
		s.cellPow[ri] = 0
		s.cellTx[ri] = s.cellTx[ri][:0]
	}
	s.occupied = s.occupied[:0]
	s.totalPow = 0
	for _, w := range txs {
		ri := m.grid.OfVertex(int(w))
		if len(s.cellTx[ri]) == 0 {
			s.occupied = append(s.occupied, int32(ri))
		}
		s.cellTx[ri] = append(s.cellTx[ri], w)
		s.cellPow[ri] += m.power[w]
		s.totalPow += m.power[w]
	}
}

// resolveOneBucketed computes listener u's outcome from the region buckets.
func (m *Model) resolveOneBucketed(u, txCount int, totalPow float64) int32 {
	s := m.bucket
	ru := m.grid.RegionOfVertex(u)
	_, _, nI, nJ := m.grid.Bounds()
	maxRing := int(max(nI, nJ)) // every cell is within this Chebyshev radius
	beta, noise := m.p.Beta, m.p.Noise
	betaN := beta * noise
	tolScaled := m.p.Tolerance / (1 + beta)
	pu := m.pos[u]

	sum, bestPw, visitedPow := 0.0, 0.0, 0.0
	best := int32(-1)
	visited := 0
	visitCell := func(ri int32) {
		for _, w := range s.cellTx[ri] {
			visited++
			visitedPow += m.power[w]
			if int(w) == u {
				continue
			}
			pw := m.pos[w]
			dx, dy := pu.X-pw.X, pu.Y-pw.Y
			rcv := m.power[w] * m.invPowSq(dx*dx+dy*dy)
			sum += rcv
			// Order-independent lowest-id tie-break: the bucketed visit
			// order is by ring, not by id, so ties compare ids explicitly.
			if rcv > bestPw || (rcv == bestPw && best >= 0 && w < best) {
				best, bestPw = w, rcv
			}
		}
	}
	decide := func() int32 {
		if best < 0 || bestPw < betaN {
			return sim.NoTransmitter
		}
		if bestPw >= beta*(noise+sum-bestPw) {
			return best
		}
		return sim.Blocked
	}

	for k := 0; ; k++ {
		m.visitRing(ru, k, visitCell)
		if visited == txCount {
			return decide()
		}
		// Every unseen transmitter sits in a ring beyond k, so its distance
		// is at least k·side (clamped to the near-field floor like every
		// gain is), bounding both its own strength and the remaining total.
		dMin := float64(k) * geo.RegionSide
		invA := m.invPowSq(dMin * dMin)
		remain := totalPow - visitedPow
		if remain < 0 {
			remain = 0
		}
		tail := remain * invA
		maxUnseen := m.maxPower * invA
		bU := bestPw
		if maxUnseen > bU {
			bU = maxUnseen
		}
		// Exact exits. Silence: nothing seen or unseen reaches the decode
		// floor. Blocked: the interference already accumulated defeats the
		// best possible strongest transmitter. Decode: nothing unseen can
		// outvie the strongest seen one, and even the whole remaining tail
		// cannot break its decode inequality.
		if bU < betaN {
			return sim.NoTransmitter
		}
		if bestPw >= betaN && (1+beta)*bU < beta*(noise+sum) {
			return sim.Blocked
		}
		if bestPw >= betaN && maxUnseen < bestPw &&
			bestPw >= beta*(noise+sum+tail-bestPw) {
			return best
		}
		// Tolerance truncation on the crude all-remaining bound.
		if tolScaled > 0 && tail <= tolScaled {
			return decide()
		}
		if k >= maxRing ||
			(k >= farPassMinRing && (k >= farPassMaxRing || (2*k+1)*(2*k+1) >= len(s.occupied))) {
			m.resolveFar(ru, k, remain, tolScaled, betaN, visitCell, func(v float64) { sum += v })
			return decide()
		}
	}
}

// visitRing applies visit to every occupied region on the Chebyshev ring of
// the given radius around center (the center cell itself for radius 0). The
// traversal order is fixed — top and bottom rows left to right, then the two
// side columns — so resolution stays a deterministic function of the round.
func (m *Model) visitRing(center geo.RegionID, k int, visit func(ri int32)) {
	at := func(i, j int32) {
		if ri, ok := m.grid.IndexOf(geo.RegionID{I: i, J: j}); ok && len(m.bucket.cellTx[ri]) > 0 {
			visit(int32(ri))
		}
	}
	if k == 0 {
		at(center.I, center.J)
		return
	}
	k32 := int32(k)
	for di := -k32; di <= k32; di++ {
		at(center.I+di, center.J-k32)
		at(center.I+di, center.J+k32)
	}
	for dj := -k32 + 1; dj <= k32-1; dj++ {
		at(center.I-k32, center.J+dj)
		at(center.I+k32, center.J+dj)
	}
}

// resolveFar finishes an undecided listener without expanding further rings:
// one pass over the occupied transmitter regions beyond the scanned radius.
// Each region's contribution lies in the interval fixed by its nearest and
// farthest point from the listener's cell (near-field clamp applied, so the
// interval genuinely brackets every member transmitter). A region is folded
// in as the interval midpoint — error at most the half-width — only when
//
//   - the half-width fits the region's proportional share of the scaled
//     tolerance budget (half·farPow ≤ tolScaled·cellPow, so the total error
//     over all midpointed regions is at most tolScaled), and
//   - even the interval's upper end stays below the decode floor β·N, so the
//     region provably cannot contain the transmitter any listener decodes
//     and skipping its members cannot change which transmitter is strongest
//     when that matters.
//
// Every other region — too close, too strong, or over budget — is
// accumulated exactly. farPow upper-bounds the total far power, keeping the
// budget shares conservative.
func (m *Model) resolveFar(ru geo.RegionID, scanned int, farPow, tolScaled, betaN float64,
	visitCell func(ri int32), addFar func(v float64)) {

	s := m.bucket
	for _, ri := range s.occupied {
		rc := m.grid.RegionAt(int(ri))
		if chebDist(ru, rc) <= scanned {
			continue // already accumulated exactly by the ring scan
		}
		dNear2, dFar2 := cellDistRangeSq(ru, rc)
		hi := m.invPowSq(dNear2)
		lo := m.invPowSq(dFar2)
		cellPow := s.cellPow[ri]
		half := cellPow * (hi - lo) / 2
		if cellPow*hi >= betaN || half*farPow > tolScaled*cellPow {
			visitCell(ri)
			continue
		}
		// Fold the midpoint into the listener's running interference sum;
		// the final decision only ever reads the aggregate.
		addFar(cellPow * (hi + lo) / 2)
	}
}

// chebDist returns the Chebyshev distance between two region keys: the ring
// index of b around a.
func chebDist(a, b geo.RegionID) int {
	di, dj := a.I-b.I, a.J-b.J
	if di < 0 {
		di = -di
	}
	if dj < 0 {
		dj = -dj
	}
	return int(max(di, dj))
}

// cellDistRangeSq returns the squared minimum and maximum Euclidean distance
// between (the closures of) two grid regions: the bracket every pair of
// member points falls inside.
func cellDistRangeSq(a, b geo.RegionID) (dNear2, dFar2 float64) {
	di, dj := a.I-b.I, a.J-b.J
	if di < 0 {
		di = -di
	}
	if dj < 0 {
		dj = -dj
	}
	nearI, nearJ := float64(di-1), float64(dj-1)
	if nearI < 0 {
		nearI = 0
	}
	if nearJ < 0 {
		nearJ = 0
	}
	farI, farJ := float64(di+1), float64(dj+1)
	const s2 = geo.RegionSide * geo.RegionSide
	return s2 * (nearI*nearI + nearJ*nearJ), s2 * (farI*farI + farJ*farJ)
}
