package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

// liveHeapMB is the heap still in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// latencies accumulates request latencies; a failed request counts as
// missing every latency limit, so it enters as +Inf.
type latencies struct {
	us     []float64
	failed int64
}

func (l *latencies) ok(d time.Duration) { l.us = append(l.us, float64(d.Nanoseconds())/1e3) }

func (l *latencies) fail() {
	l.us = append(l.us, math.Inf(1))
	l.failed++
}

func (l *latencies) attempted() int64 { return int64(len(l.us)) }

// tailWindow is how many consecutive requests one 99th percentile is taken
// over, so that ten lie beyond it.
const tailWindow = 1000

// tail is the median, over consecutive windows of tailWindow requests, of
// each window's q-quantile, so a stall that hits one window moves it
// little. With fewer than two windows it is the q-quantile of all requests.
func (l *latencies) tail(q float64) float64 {
	if len(l.us) < 2*tailWindow {
		return quantile(l.us, q)
	}
	var tails []float64
	for i := 0; i+tailWindow <= len(l.us); i += tailWindow {
		tails = append(tails, quantile(l.us[i:i+tailWindow], q))
	}
	return median(tails)
}

// cpuTime is the CPU time, user and system, this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter measures a leg of a workload block by block: the work done per
// wall-clock second, and per second of CPU time used by the whole process
// (client, gateway, server and kernel alike). Medians over blocks are
// reported.
type meter struct {
	rate   []float64
	perCPU []float64

	wall0 time.Time
	cpu0  time.Duration
}

func (m *meter) start() {
	m.wall0, m.cpu0 = time.Now(), cpuTime()
}

// stop ends a block in which n units of work completed.
func (m *meter) stop(n int) {
	wall, cpu := time.Since(m.wall0), cpuTime()-m.cpu0
	if n > 0 && wall > 0 && cpu > 0 {
		m.rate = append(m.rate, float64(n)/wall.Seconds())
		m.perCPU = append(m.perCPU, float64(n)/cpu.Seconds())
	}
}
