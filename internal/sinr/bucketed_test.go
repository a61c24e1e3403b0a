package sinr

import (
	"math"
	"testing"

	"lbcast/internal/geo"
	"lbcast/internal/xrand"
)

// bucketedFixture builds a model over a random constant-density placement —
// the sweep-geometric family the bucketed resolver exists for — and checks
// that its grid index is active.
func bucketedFixture(t *testing.T, n int, tol float64, pa PowerAssignment, seed uint64) (*Model, []geo.Point) {
	t.Helper()
	pos := uniformPlacement(n, seed)
	p := DefaultParams()
	p.Tolerance = tol
	m, err := NewModel(pos, pa, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.grid == nil {
		t.Fatal("bucketed fixture did not activate the grid index")
	}
	if m.bucket == nil {
		// Tolerance-zero models never bucket on their own; the tests
		// below call resolveBucketed directly.
		m.bucket = newBucketScratch(m.grid)
	}
	return m, pos
}

// resolveBucketed resolves one round through the region buckets whatever
// the tolerance and transmitter count, bypassing Resolve's dispatch.
func (m *Model) resolveBucketed(txs []int32, out []int32) {
	m.prepareBuckets(txs)
	for u := range out {
		out[u] = m.resolveOneBucketed(u, len(txs), m.bucket.totalPow)
	}
}

// randomTxs draws a transmitter set with the given per-node probability,
// ascending as the engine supplies it.
func randomTxs(n int, prob float64, rng *xrand.Source) []int32 {
	var txs []int32
	for u := 0; u < n; u++ {
		if rng.Coin(prob) {
			txs = append(txs, int32(u))
		}
	}
	return txs
}

// TestBucketedMatchesExactAtToleranceZero is the satellite equivalence
// contract: with tolerance 0 the bucketed resolver must reproduce the exact
// resolver outcome for outcome, per listener, across seeds, densities and
// power assignments. The bucketed path is invoked directly so small rounds
// cannot fall back to the exact resolver.
func TestBucketedMatchesExactAtToleranceZero(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		n := 300 + int(seed)*40
		m, _ := bucketedFixture(t, n, 0, nil, seed)
		rng := xrand.New(seed * 77)
		for _, prob := range []float64{0.02, 0.1, 0.4} {
			txs := randomTxs(n, prob, rng)
			if len(txs) == 0 {
				continue
			}
			exact := make([]int32, n)
			bucketed := make([]int32, n)
			refResolveExact(m, txs, exact)
			m.resolveBucketed(txs, bucketed)
			for u := range exact {
				if exact[u] != bucketed[u] {
					t.Fatalf("seed %d prob %v: listener %d resolves to %d bucketed vs %d exact",
						seed, prob, u, bucketed[u], exact[u])
				}
			}
		}
	}
}

// TestBucketedMatchesExactPerNodePower repeats the equivalence check under
// an asymmetric power assignment, which exercises the max-power and
// per-cell-power bounds of the stopping rules.
func TestBucketedMatchesExactPerNodePower(t *testing.T) {
	const n = 400
	rng := xrand.New(3)
	powers := make(PerNodePower, n)
	for u := range powers {
		powers[u] = 0.25 + 4*rng.Float64()
	}
	m, _ := bucketedFixture(t, n, 0, powers, 9)
	for _, prob := range []float64{0.05, 0.3} {
		txs := randomTxs(n, prob, rng)
		exact := make([]int32, n)
		bucketed := make([]int32, n)
		refResolveExact(m, txs, exact)
		m.resolveBucketed(txs, bucketed)
		for u := range exact {
			if exact[u] != bucketed[u] {
				t.Fatalf("prob %v: listener %d resolves to %d bucketed vs %d exact",
					prob, u, bucketed[u], exact[u])
			}
		}
	}
}

// exactMargins recomputes listener u's exact decision quantities and returns
// its two margins in Tolerance units: distance of the strongest received
// power from the decode floor β·N, and distance of (1+β)·bestPw from
// β·(N+sum) — the decode inequality rearranged to one side. The bucketed
// resolver guarantees identical outcomes whenever both exceed Tolerance.
func exactMargins(m *Model, u int, txs []int32) (silence, decode float64) {
	bestPw, sum := 0.0, 0.0
	for _, w := range txs {
		if int(w) == u {
			continue
		}
		pw := m.ReceivedPower(u, int(w))
		sum += pw
		if pw > bestPw {
			bestPw = pw
		}
	}
	betaN := m.p.Beta * m.p.Noise
	return math.Abs(bestPw - betaN), math.Abs((1+m.p.Beta)*bestPw - m.p.Beta*(m.p.Noise+sum))
}

// TestBucketedToleranceBound is the satellite bound contract: at nonzero
// tolerance the bucketed resolver may only flip listeners whose exact SINR
// decision margin is at most the tolerance (a hair of float slack aside).
// Every flip found across seeds and transmit densities must sit inside the
// margin window, and listeners outside it must agree exactly.
func TestBucketedToleranceBound(t *testing.T) {
	for _, tol := range []float64{0.001, 0.02, 0.1} {
		flips := 0
		for seed := uint64(1); seed <= 4; seed++ {
			const n = 500
			m, _ := bucketedFixture(t, n, tol, nil, seed+20)
			rng := xrand.New(seed * 131)
			for _, prob := range []float64{0.03, 0.15, 0.5} {
				txs := randomTxs(n, prob, rng)
				if len(txs) == 0 {
					continue
				}
				exact := make([]int32, n)
				bucketed := make([]int32, n)
				refResolveExact(m, txs, exact)
				m.resolveBucketed(txs, bucketed)
				for u := range exact {
					if exact[u] == bucketed[u] {
						continue
					}
					flips++
					silence, decode := exactMargins(m, u, txs)
					margin := math.Min(silence, decode)
					if margin > tol*(1+1e-9) {
						t.Fatalf("tol %v seed %d prob %v: listener %d flipped (%d vs exact %d) with margin %v > tolerance",
							tol, seed, prob, u, bucketed[u], exact[u], margin)
					}
				}
			}
		}
		t.Logf("tol %v: %d in-margin flips across all rounds", tol, flips)
	}
}

// TestBucketedDeterministic: the bucketed resolver is a pure function of the
// transmitter set — repeated rounds give identical outcomes.
func TestBucketedDeterministic(t *testing.T) {
	const n = 300
	m, _ := bucketedFixture(t, n, 0.01, nil, 5)
	txs := randomTxs(n, 0.2, xrand.New(17))
	a, b := make([]int32, n), make([]int32, n)
	m.resolveBucketed(txs, a)
	m.resolveBucketed(txs, b)
	for u := range a {
		if a[u] != b[u] {
			t.Fatalf("listener %d: outcome differs across identical rounds: %d vs %d", u, a[u], b[u])
		}
	}
}

// TestResolveDispatch pins the Resolve entry point: small rounds use the
// exact path even on a tolerance-configured model, large rounds bucket, and
// a tolerance-zero model never buckets although it holds a grid index.
func TestResolveDispatch(t *testing.T) {
	const n = 200
	m, _ := bucketedFixture(t, n, 0.01, nil, 2)
	small := []int32{0, 3, 9} // below BucketedMinTx: exact path
	outA, outB := make([]int32, n), make([]int32, n)
	m.Resolve(1, small, outA)
	refResolveExact(m, small, outB)
	for u := range outA {
		if outA[u] != outB[u] {
			t.Fatalf("small-round dispatch diverged at listener %d", u)
		}
	}
	big := randomTxs(n, 0.5, xrand.New(4))
	if len(big) < BucketedMinTx {
		t.Fatalf("fixture too sparse: %d txs", len(big))
	}
	m.Resolve(2, big, outA)
	m.resolveBucketed(big, outB)
	for u := range outA {
		if outA[u] != outB[u] {
			t.Fatalf("large-round dispatch did not bucket: diverged at listener %d", u)
		}
	}

	exactOnly, _ := bucketedFixture(t, n, 0, nil, 2)
	exactOnly.Resolve(3, big, outA)
	if exactOnly.roundBucketed {
		t.Fatal("tolerance-zero model bucketed a large round")
	}
	refResolveExact(exactOnly, big, outB)
	for u := range outA {
		if outA[u] != outB[u] {
			t.Fatalf("tolerance-zero model diverged from the oracle at listener %d", u)
		}
	}
}

func TestParamsValidateTolerance(t *testing.T) {
	p := DefaultParams()
	p.Tolerance = 0.01
	if err := p.Validate(); err != nil {
		t.Fatalf("valid tolerance rejected: %v", err)
	}
	for _, tol := range []float64{-0.1, math.NaN(), p.Beta * p.Noise, p.Beta*p.Noise + 1} {
		p.Tolerance = tol
		if err := p.Validate(); err == nil {
			t.Errorf("tolerance %v accepted", tol)
		}
	}
}
