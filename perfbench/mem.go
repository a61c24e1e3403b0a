package main

import "runtime"

// memProbe measures the Go runtime over one timed loop from runtime.MemStats
// read at the loop's two ends.
type memProbe struct{ before runtime.MemStats }

func startMem() *memProbe {
	p := &memProbe{}
	runtime.ReadMemStats(&p.before)
	return p
}

// finish returns the loop's deltas over rounds.
func (p *memProbe) finish(rounds int64) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		rounds:     rounds,
		allocBytes: after.TotalAlloc - p.before.TotalAlloc,
		allocs:     after.Mallocs - p.before.Mallocs,
		pauseNs:    after.PauseTotalNs - p.before.PauseTotalNs,
		heapSys:    after.HeapSys,
	}
}

// memDelta is one timed loop's runtime footprint. heapSys is the heap's
// mapped address space at the loop's end, which the runtime grows to the
// heap's high-water mark and does not shrink.
type memDelta struct {
	rounds             int64
	allocBytes, allocs uint64
	pauseNs            uint64
	heapSys            uint64
}

func (d memDelta) metrics() map[string]float64 {
	r := float64(max(d.rounds, 1))
	return map[string]float64{
		"go.alloc_bytes_per_round": float64(d.allocBytes) / r,
		"go.allocs_per_round":      float64(d.allocs) / r,
		"go.gc_pause_ms":           float64(d.pauseNs) / 1e6,
		"go.heap_peak_mb":          float64(d.heapSys) / (1 << 20),
	}
}
