package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"kleb/internal/telemetry"
)

// hostInfo is recorded with every result so a number is never read apart
// from the machine that produced it.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown"
// where the file is absent (non-Linux hosts).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantileMs returns the nearest-rank q-quantile of host durations recorded
// in nanoseconds, in milliseconds.
func quantileMs(q *telemetry.ExactQuantiles, p float64) float64 {
	return float64(q.Quantile(p)) / 1e6
}

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Runtime metrics read without stopping the world.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

// runtimeCounters is one reading of the cumulative runtime counters.
type runtimeCounters struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// heapSampler polls the heap's in-use object bytes until stopped. Polling
// runtime/metrics never stops the world, so the sampler does not perturb
// the timed window the way runtime.ReadMemStats would.
type heapSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples telemetry.ExactQuantiles
}

// heapSamplePeriod is the sampler's polling period.
const heapSamplePeriod = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: mHeapObjects}}
		t := time.NewTicker(heapSamplePeriod)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples.Observe(s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler, waits for it and returns the peak heap in MB,
// taken as the 99th percentile of the samples. The maximum would hang on
// the one sample that caught a collection at its latest, which varies far
// more between runs than the level the heap keeps reaching.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.samples.Quantile(0.99)) / (1 << 20)
}
