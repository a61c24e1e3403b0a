package sinr

import (
	"math"
	"testing"

	"lbcast/internal/geo"
	"lbcast/internal/sim"
)

func mustModel(t *testing.T, pos []geo.Point, pa PowerAssignment, p Params) *Model {
	t.Helper()
	m, err := NewModel(pos, pa, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
	bad := []Params{
		{Alpha: 0, Beta: 2, Noise: 0.1, MinDist: 0.01},
		{Alpha: 3, Beta: 0, Noise: 0.1, MinDist: 0.01},
		{Alpha: 3, Beta: 2, Noise: 0, MinDist: 0.01},
		{Alpha: 3, Beta: 2, Noise: 0.1, MinDist: 0},
		{Alpha: math.NaN(), Beta: 2, Noise: 0.1, MinDist: 0.01},
		{Alpha: math.Inf(1), Beta: 2, Noise: 0.1, MinDist: 0.01},
		{Alpha: 3, Beta: math.Inf(1), Noise: 0.1, MinDist: 0.01},
		{Alpha: 3, Beta: 2, Noise: math.Inf(1), MinDist: 0.01},
		{Alpha: 3, Beta: 2, Noise: 0.1, MinDist: math.Inf(1)},
		{Alpha: math.Inf(-1), Beta: 2, Noise: 0.1, MinDist: 0.01},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d validated: %+v", i, p)
		}
	}
}

func TestNewModelRejectsBadPower(t *testing.T) {
	pos := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	for _, pw := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewModel(pos, UniformPower(pw), DefaultParams()); err == nil {
			t.Errorf("power %v accepted", pw)
		}
	}
	if _, err := NewModel(nil, UniformPower(1), DefaultParams()); err == nil {
		t.Error("empty placement accepted")
	}
}

// TestZeroDistancePair pins the near-field clamp: two co-located nodes must
// get the finite gain d₀^{−α}, and a transmission between them must decode
// (their received power dwarfs noise) rather than divide by zero.
func TestZeroDistancePair(t *testing.T) {
	p := DefaultParams()
	pos := []geo.Point{{X: 2, Y: 2}, {X: 2, Y: 2}, {X: 7, Y: 7}}
	m := mustModel(t, pos, UniformPower(1), p)

	wantGain := math.Pow(p.MinDist, -p.Alpha)
	if g := m.Gain(0, 1); g != wantGain {
		t.Errorf("co-located gain = %v, want clamped %v", g, wantGain)
	}
	if g := m.Gain(0, 0); g != wantGain {
		t.Errorf("self gain = %v, want clamped %v (distance 0)", g, wantGain)
	}

	out := make([]int32, 3)
	m.Resolve(1, []int32{0}, out)
	if out[1] != 0 {
		t.Errorf("co-located listener got %d, want transmitter 0", out[1])
	}
}

// TestExactThresholdDistance pins the boundary semantics with exactly
// representable floats: α=2, β=2, N=0.125 put the isolation range at
// distance 2, where the received power 2^{−2} = 0.25 equals β·N exactly —
// SINR == β and the ≥ comparison must decode. A listener strictly beyond
// must hear silence (not a collision).
func TestExactThresholdDistance(t *testing.T) {
	p := Params{Alpha: 2, Beta: 2, Noise: 0.125, MinDist: 0.01}
	if r := p.Range(1); r != 2 {
		t.Fatalf("isolation range = %v, want exactly 2", r)
	}
	pos := []geo.Point{
		{X: 0, Y: 0},        // transmitter
		{X: 2, Y: 0},        // exactly at threshold: SINR == β
		{X: 2.000001, Y: 0}, // just beyond
		{X: 1, Y: 0},        // comfortably inside
		{X: 5000, Y: 5000},  // far away
	}
	m := mustModel(t, pos, UniformPower(1), p)

	if got := m.SINR(1, 0, []int32{0}); got != p.Beta {
		t.Fatalf("SINR at isolation range = %v, want exactly β = %v", got, p.Beta)
	}

	out := make([]int32, len(pos))
	m.Resolve(1, []int32{0}, out)
	if out[1] != 0 {
		t.Errorf("listener exactly at threshold got %d, want decode of 0", out[1])
	}
	if out[2] != sim.NoTransmitter {
		t.Errorf("listener just beyond threshold got %d, want silence", out[2])
	}
	if out[3] != 0 {
		t.Errorf("inside listener got %d, want 0", out[3])
	}
	if out[4] != sim.NoTransmitter {
		t.Errorf("distant listener got %d, want silence", out[4])
	}
}

// TestThresholdNeighborhoodDefaults checks the same boundary with the
// comparison calibration, at a float-safe margin around the isolation
// range.
func TestThresholdNeighborhoodDefaults(t *testing.T) {
	p := DefaultParams()
	r := p.Range(1)
	pos := []geo.Point{
		{X: 0, Y: 0},
		{X: r * (1 - 1e-9), Y: 0}, // just inside
		{X: r * (1 + 1e-9), Y: 0}, // just outside
	}
	m := mustModel(t, pos, UniformPower(1), p)
	if got := m.SINR(1, 0, []int32{0}); math.Abs(got-p.Beta) > 1e-6 {
		t.Fatalf("SINR near isolation range = %v, want ≈ β = %v", got, p.Beta)
	}
	out := make([]int32, len(pos))
	m.Resolve(1, []int32{0}, out)
	if out[1] != 0 {
		t.Errorf("listener just inside got %d, want decode", out[1])
	}
	if out[2] != sim.NoTransmitter {
		t.Errorf("listener just outside got %d, want silence", out[2])
	}
}

// TestInterferenceBlocks checks the tri-state outcome: a listener between
// two symmetric transmitters is Blocked (collision), not silent.
func TestInterferenceBlocks(t *testing.T) {
	p := DefaultParams()
	pos := []geo.Point{
		{X: -0.5, Y: 0}, // transmitter A
		{X: 0.5, Y: 0},  // transmitter B
		{X: 0, Y: 0},    // listener equidistant from both
	}
	m := mustModel(t, pos, UniformPower(1), p)
	out := make([]int32, 3)
	m.Resolve(1, []int32{0, 1}, out)
	if out[2] != sim.Blocked {
		t.Errorf("listener between equal transmitters got %d, want Blocked", out[2])
	}
	// Alone, either transmitter decodes.
	m.Resolve(2, []int32{1}, out)
	if out[2] != 1 {
		t.Errorf("lone transmitter: listener got %d, want 1", out[2])
	}
}

// TestPowerSymmetryAndDeterminism: under a uniform power assignment the gain
// matrix is symmetric, ties resolve to the lowest id, and Resolve is a pure
// function of (txs) — repeated calls give identical outcomes.
func TestPowerSymmetryAndDeterminism(t *testing.T) {
	p := DefaultParams()
	pos := []geo.Point{
		{X: 0, Y: 0}, {X: 1.2, Y: 0.3}, {X: 0.4, Y: 1.1}, {X: 2.2, Y: 1.9}, {X: 1.1, Y: 1.1},
	}
	m := mustModel(t, pos, UniformPower(1), p)
	for u := range pos {
		for v := range pos {
			if gu, gv := m.Gain(u, v), m.Gain(v, u); gu != gv {
				t.Errorf("gain asymmetry (%d,%d): %v vs %v", u, v, gu, gv)
			}
			if ru, rv := m.ReceivedPower(u, v), m.ReceivedPower(v, u); ru != rv {
				t.Errorf("uniform-power reception asymmetry (%d,%d): %v vs %v", u, v, ru, rv)
			}
		}
	}

	txs := []int32{0, 1, 3}
	a, b := make([]int32, len(pos)), make([]int32, len(pos))
	m.Resolve(1, txs, a)
	m.Resolve(2, txs, b) // round number must not matter
	for u := range a {
		if a[u] != b[u] {
			t.Errorf("node %d: outcome differs across identical rounds: %d vs %d", u, a[u], b[u])
		}
	}
}

// TestTieBreakLowestID: a listener exactly equidistant from two equal-power
// transmitters must deterministically attribute the (blocked or decoded)
// strongest signal to the lowest id. With β < 1 both would decode in
// isolation; the tie must pick id 0.
func TestTieBreakLowestID(t *testing.T) {
	p := DefaultParams()
	p.Beta = 0.4 // permissive threshold: SINR of each ≈ signal/(noise+signal) < 1
	pos := []geo.Point{
		{X: -0.2, Y: 0}, {X: 0.2, Y: 0}, {X: 0, Y: 0},
	}
	m := mustModel(t, pos, UniformPower(1), p)
	out := make([]int32, 3)
	m.Resolve(1, []int32{0, 1}, out)
	if out[2] != 0 {
		t.Errorf("equidistant tie resolved to %d, want lowest id 0", out[2])
	}
}

// TestPerNodePower: asymmetric powers must shift reception asymmetrically.
func TestPerNodePower(t *testing.T) {
	p := DefaultParams()
	pos := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2.5, Y: 0}}
	m := mustModel(t, pos, PerNodePower{8, 1, 1}, p)
	// Node 0 at power 8 reaches 2 (distance 2.5 > Range(1) but < Range(8)).
	if r1, r8 := p.Range(1), p.Range(8); !(r1 < 2.5 && 2.5 < r8) {
		t.Fatalf("test geometry broken: Range(1)=%v Range(8)=%v", r1, r8)
	}
	out := make([]int32, 3)
	m.Resolve(1, []int32{0}, out)
	if out[2] != 0 {
		t.Errorf("high-power transmission not heard at 2.5: got %d", out[2])
	}
	// The reverse direction at power 1 is out of range.
	m.Resolve(2, []int32{2}, out)
	if out[0] != sim.NoTransmitter {
		t.Errorf("low-power transmission heard beyond its range: got %d", out[0])
	}
}
