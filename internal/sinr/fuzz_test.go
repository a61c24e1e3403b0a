package sinr

import (
	"math"
	"testing"

	"lbcast/internal/geo"
	"lbcast/internal/xrand"
)

// fuzzN is the placement size of every fuzz input: dense enough at the
// sweep density that the exact resolver prunes for every decoded
// calibration.
const fuzzN = 256

// maxFuzzRecords bounds the placement records decoded from one input.
const maxFuzzRecords = 16

// fuzzCase is one decoded fuzz input.
type fuzzCase struct {
	p   Params
	pos []geo.Point
	pa  PowerAssignment
	txs []int32
}

// decodeFuzzCase turns fuzz input into a model configuration and a round.
// Seven header bytes come first. Five pick the calibration: α ∈ {2, 3, 4,
// 2.5} (data[0]), β ∈ {1.5, 2, 3} (data[1]), a unit-power isolation range
// r₀ ∈ {1, 1.5, 2} that fixes N = 1/(β·r₀^α) (data[2]), Tolerance ∈ {0,
// 0.001, 0.02, 0.2}·β·N (data[3]), and flags (data[4]): bit 0 draws
// per-node powers in [0.5, 2], bit 1 moves node 0 far away so the index is
// sparse, bit 2 sets d₀ = 0.5 instead of 0.01, and (data[4]>>3)%5 picks the
// transmit probability from {0.002, 0.01, 0.05, 0.3, 0.6}. data[5:7] seed
// the uniform placement and the transmitter draw. Each following three
// bytes [a, b, c] are one record that makes node b%fuzzN transmit and moves
// node a%fuzzN: for c%8 < 6 onto the isolation range of b's power, scaled
// by 1 + {0, ±1e-9, 1e-7, 1e-6, 2e-6}, along the axis direction (c/8)%4;
// for c%8 ≥ 6 onto b itself, and at 7 it transmits too. Records past
// maxFuzzRecords are ignored.
func decodeFuzzCase(data []byte) fuzzCase {
	var h [7]byte
	copy(h[:], data)
	alpha := [...]float64{2, 3, 4, 2.5}[h[0]%4]
	beta := [...]float64{1.5, 2, 3}[h[1]%3]
	r0 := [...]float64{1, 1.5, 2}[h[2]%3]
	p := Params{Alpha: alpha, Beta: beta, Noise: 1 / (beta * math.Pow(r0, alpha)), MinDist: 0.01}
	p.Tolerance = [...]float64{0, 0.001, 0.02, 0.2}[h[3]%4] * p.Beta * p.Noise
	if h[4]&4 != 0 {
		p.MinDist = 0.5
	}
	prob := [...]float64{0.002, 0.01, 0.05, 0.3, 0.6}[(h[4]>>3)%5]
	rng := xrand.New(uint64(h[5]) | uint64(h[6])<<8)

	pos := uniformPlacement(fuzzN, rng.Uint64())
	var pa PowerAssignment = UniformPower(1)
	if h[4]&1 != 0 {
		pn := make(PerNodePower, fuzzN)
		for u := range pn {
			pn[u] = 0.5 + 1.5*rng.Float64()
		}
		pa = pn
	}
	transmit := make([]bool, fuzzN)
	for u := range transmit {
		transmit[u] = rng.Coin(prob)
	}
	if len(data) > len(h) {
		recs := data[len(h):]
		recs = recs[:min(len(recs), 3*maxFuzzRecords)]
		for ; len(recs) >= 3; recs = recs[3:] {
			k, w, mode := int(recs[0])%fuzzN, int(recs[1])%fuzzN, recs[2]
			transmit[w] = true
			if k == w {
				continue
			}
			if mode%8 >= 6 {
				pos[k] = pos[w]
				transmit[k] = transmit[k] || mode%8 == 7
				continue
			}
			r := p.Range(pa.Power(w)) * (1 + [...]float64{0, -1e-9, 1e-9, 1e-7, 1e-6, 2e-6}[mode%8])
			dir := [...]geo.Point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}[(mode/8)%4]
			pos[k] = geo.Point{X: pos[w].X + r*dir.X, Y: pos[w].Y + r*dir.Y}
		}
	}
	if h[4]&2 != 0 {
		pos[0] = geo.Point{X: 1e6, Y: 1e6}
	}
	var txs []int32
	for u, tx := range transmit {
		if tx {
			txs = append(txs, int32(u))
		}
	}
	return fuzzCase{p: p, pos: pos, pa: pa, txs: txs}
}

// FuzzResolveMatchesOracle is the differential test of the resolvers
// against the full-scan oracle refResolveExact. At Tolerance 0 Resolve (the
// pruned exact resolver, or the plain scan on a sparse index) and its
// sharded form must equal the oracle slot for slot. At Tolerance > 0
// Resolve and the bucketed resolver must match the oracle on every listener
// whose exact decision margin exceeds Tolerance.
func FuzzResolveMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFuzzCase(data)
		m, err := NewModel(c.pos, c.pa, c.p)
		if err != nil {
			t.Fatal(err)
		}
		want, got := make([]int32, fuzzN), make([]int32, fuzzN)
		refResolveExact(m, c.txs, want)
		if c.p.Tolerance == 0 {
			requireOracle(t, m, 1, c.txs)
			return
		}
		check := func(name string) {
			for u := range want {
				if got[u] == want[u] {
					continue
				}
				silence, decode := exactMargins(m, u, c.txs)
				if margin := math.Min(silence, decode); margin > c.p.Tolerance*(1+1e-9) {
					t.Fatalf("%s: listener %d resolves to %d, oracle %d, margin %v > tolerance %v (params %+v, %d txs)",
						name, u, got[u], want[u], margin, c.p.Tolerance, c.p, len(c.txs))
				}
			}
		}
		m.Resolve(1, c.txs, got)
		check("Resolve")
		if m.bucket != nil {
			m.resolveBucketed(c.txs, got)
			check("bucketed")
		}
	})
}
