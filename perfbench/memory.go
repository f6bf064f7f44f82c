package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// heapSampler records the highest Go heap in use while it runs: live
// plus not-yet-swept objects, read every millisecond, kept per window of
// the sampling period.
type heapSampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	peaks []uint64 // per window; written by the sampling goroutine until Stop returns
}

const heapObjects = "/memory/classes/heap/objects:bytes"

// startHeapSampler starts sampling; window 0 makes the whole period one
// window.
func startHeapSampler(window time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		start := time.Now()
		for {
			metrics.Read(sample)
			w := 0
			if window > 0 {
				w = int(time.Since(start) / window)
			}
			for len(h.peaks) <= w {
				h.peaks = append(h.peaks, 0)
			}
			h.peaks[w] = max(h.peaks[w], sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns each window's peak in MiB.
func (h *heapSampler) Stop() []float64 {
	close(h.stop)
	h.wg.Wait()
	mib := make([]float64, len(h.peaks))
	for i, p := range h.peaks {
		mib[i] = float64(p) / (1 << 20)
	}
	return mib
}

// allocs is a cumulative allocation reading (bytes and objects since the
// process started), cheap enough to take around every traced layer call
// because runtime/metrics does not stop the world.
type allocs struct {
	Bytes, Objects uint64
}

var allocSamples = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

func readAllocs() allocs {
	s := make([]metrics.Sample, len(allocSamples))
	for i, n := range allocSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return allocs{Bytes: s[0].Value.Uint64(), Objects: s[1].Value.Uint64()}
}

func (a allocs) sub(b allocs) allocs {
	return allocs{Bytes: a.Bytes - b.Bytes, Objects: a.Objects - b.Objects}
}

// gcReading is the Go runtime's allocation and collection totals, or the
// difference of two readings. ReadMemStats stops the world, so readings
// are taken only outside timed spans.
type gcReading struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readGC() gcReading {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcReading{totalAlloc: m.TotalAlloc, numGC: m.NumGC, pauseNs: m.PauseTotalNs}
}

func (a gcReading) sub(b gcReading) gcReading {
	return gcReading{totalAlloc: a.totalAlloc - b.totalAlloc, numGC: a.numGC - b.numGC, pauseNs: a.pauseNs - b.pauseNs}
}

func (a gcReading) add(b gcReading) gcReading {
	return gcReading{totalAlloc: a.totalAlloc + b.totalAlloc, numGC: a.numGC + b.numGC, pauseNs: a.pauseNs + b.pauseNs}
}

// runtimeMetrics fills the runtime.* per-operation figures from the
// totals d over ops operations.
func runtimeMetrics(vals map[string]float64, d gcReading, ops int) {
	n := float64(ops)
	vals["runtime.alloc_mb_per_op"] = ratio(float64(d.totalAlloc)/(1<<20), n)
	vals["runtime.gc_cycles_per_op"] = ratio(float64(d.numGC), n)
	vals["runtime.gc_pause_ms_per_op"] = ratio(float64(d.pauseNs)/1e6, n)
}
