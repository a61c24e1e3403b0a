package sinr

import (
	"fmt"
	"math"
	"testing"

	"lbcast/internal/geo"
	"lbcast/internal/xrand"
)

// refResolveExact is the test oracle of every resolver: the unpruned
// O(n·|txs|) full scan, resolveOne for every listener.
func refResolveExact(m *Model, txs []int32, out []int32) {
	for u := range out {
		out[u] = m.resolveOne(u, txs)
	}
}

// requireOracle resolves one round through Resolve and the sharded entry
// points and fails on the first listener whose outcome differs from the
// oracle.
func requireOracle(t *testing.T, m *Model, round int, txs []int32) {
	t.Helper()
	n := m.N()
	want, got := make([]int32, n), make([]int32, n)
	refResolveExact(m, txs, want)
	m.Resolve(round, txs, got)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("round %d, %d txs: listener %d resolves to %d, oracle %d",
				round, len(txs), u, got[u], want[u])
		}
	}
	clear(got)
	m.PrepareRound(round, txs)
	for lo := 0; lo < n; lo += 97 {
		m.ResolveRange(round, txs, got, lo, min(lo+97, n))
	}
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("round %d, %d txs: sharded listener %d resolves to %d, oracle %d",
				round, len(txs), u, got[u], want[u])
		}
	}
}

// uniformPlacement scatters n nodes over a square at the sweep density of
// four nodes per unit area.
func uniformPlacement(n int, seed uint64) []geo.Point {
	rng := xrand.New(seed)
	side := math.Sqrt(float64(n) / 4)
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	return pos
}

// TestPrunedMatchesOracle pins the exact resolver's listener pruning: at
// Tolerance 0 every outcome equals the unpruned full scan, slot for slot,
// transmitters' own slots included.
func TestPrunedMatchesOracle(t *testing.T) {
	const n = 2000
	rng := xrand.New(11)
	perNode := make(PerNodePower, n)
	for u := range perNode {
		perNode[u] = 0.25 + 4*rng.Float64()
	}
	// Co-located: nodes stacked four deep on a lattice, so many pairs sit
	// at distance 0 and get the d₀ clamp.
	stacked := make([]geo.Point, n)
	for i := range stacked {
		k := i / 4
		stacked[i] = geo.Point{X: float64(k%25) * 0.9, Y: float64(k/25) * 0.9}
	}
	// Sparse: the bounding box dwarfs n, so the index is not dense.
	sparse := uniformPlacement(n, 5)
	sparse[0] = geo.Point{X: 1e6, Y: 1e6}

	cases := []struct {
		name   string
		pos    []geo.Point
		pa     PowerAssignment
		pruned bool
	}{
		{"uniform", uniformPlacement(n, 1), UniformPower(1), true},
		{"per-node", uniformPlacement(n, 2), perNode, true},
		{"co-located", stacked, UniformPower(1), true},
		{"sparse", sparse, UniformPower(1), false},
	}
	for _, c := range cases {
		for _, prob := range []float64{0.001, 0.01, 0.05, 0.3} {
			t.Run(fmt.Sprintf("%s/p=%v", c.name, prob), func(t *testing.T) {
				m := mustModel(t, c.pos, c.pa, DefaultParams())
				if got := m.stencil != nil; got != c.pruned {
					t.Fatalf("pruning active = %v, want %v", got, c.pruned)
				}
				txRng := xrand.New(uint64(prob*1e4) + 3)
				for round := 1; round <= 3; round++ {
					requireOracle(t, m, round, randomTxs(n, prob, txRng))
				}
			})
		}
	}
}

// TestPrunedThresholdListener puts a listener at exactly Range(P) with the
// float-exact constants of TestExactThresholdDistance, inside a placement
// dense enough for pruning: the listener must stay a candidate and decode.
func TestPrunedThresholdListener(t *testing.T) {
	p := Params{Alpha: 2, Beta: 2, Noise: 0.125, MinDist: 0.01}
	pos := []geo.Point{
		{X: 0, Y: 0},        // transmitter
		{X: 2, Y: 0},        // exactly at threshold: SINR == β
		{X: 2.000001, Y: 0}, // just beyond
		{X: 0, Y: -2},       // exactly at threshold, other axis
	}
	for i := range 20 {
		for j := range 20 {
			pos = append(pos, geo.Point{X: float64(i)*0.5 + 3.1, Y: float64(j)*0.5 - 5})
		}
	}
	m := mustModel(t, pos, UniformPower(1), p)
	if m.stencil == nil {
		t.Fatal("fixture did not enable pruning")
	}
	txs := []int32{0}
	requireOracle(t, m, 1, txs)
	out := make([]int32, len(pos))
	m.Resolve(1, txs, out)
	if out[1] != 0 || out[3] != 0 {
		t.Errorf("listeners at the isolation range got %d and %d, want 0", out[1], out[3])
	}
}

// TestCandidateStampWraps runs rounds across the uint32 stamp wrap-around:
// outcomes stay equal to the oracle, and stamps left from before the wrap
// mark no listener, so the candidate set equals a fresh model's.
func TestCandidateStampWraps(t *testing.T) {
	const n = 1000
	pos := uniformPlacement(n, 3)
	m := mustModel(t, pos, UniformPower(1), DefaultParams())
	rng := xrand.New(4)
	for round := 1; round <= 3; round++ {
		requireOracle(t, m, round, randomTxs(n, 0.05, rng))
	}
	m.round = math.MaxUint32 - 2
	for round := 4; round <= 8; round++ {
		txs := randomTxs(n, 0.01, rng)
		requireOracle(t, m, round, txs)
		fresh := mustModel(t, pos, UniformPower(1), DefaultParams())
		fresh.PrepareRound(round, txs)
		for u := range n {
			if got, want := m.stamp[u] == m.round, fresh.stamp[u] == fresh.round; got != want {
				t.Fatalf("round %d (stamp %d): listener %d candidate = %v, fresh model %v",
					round, m.round, u, got, want)
			}
		}
	}
}

// TestTinyAlphaKeepsFullScan: at α = 10⁻¹⁰ the candidate slack buys less
// than one ULP of received power, so a listener just outside the widened
// range still decodes. Such calibrations must keep the full scan.
func TestTinyAlphaKeepsFullScan(t *testing.T) {
	p := Params{Alpha: 1e-10, Beta: 1, Noise: 1, MinDist: 0.01}
	pos := []geo.Point{{X: 0, Y: 0}, {X: 1.0000007, Y: 0}}
	for i := range 10 {
		for j := range 10 {
			pos = append(pos, geo.Point{X: float64(i)*0.5 + 2, Y: float64(j) * 0.5})
		}
	}
	m := mustModel(t, pos, UniformPower(1), p)
	requireOracle(t, m, 1, []int32{0})
	out := make([]int32, len(pos))
	m.Resolve(1, []int32{0}, out)
	if out[1] != 0 {
		t.Fatalf("listener at 1.0000007 got %d, want decode of 0", out[1])
	}
}
