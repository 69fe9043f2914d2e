package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs with linear interpolation between
// order statistics; an empty xs yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// nsQuantile is quantile over nanosecond samples, scaled by 1/div.
func nsQuantile(ns []int64, q, div float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / div
	}
	return quantile(xs, q)
}

func nowNanos() int64 { return time.Now().UnixNano() }

// cpuTimes returns the user+system CPU time of this process and of its
// reaped children. Differences across a run isolate that run's cost: the
// children half grows exactly by the workers reaped in between.
func cpuTimes() (self, children time.Duration) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	self = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru)
	children = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return self, children
}

// maxRSSKiB is this process's peak resident set size. A worker process
// reports it after quiescence, so it covers exactly one run.
func maxRSSKiB() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Maxrss
}

// readCPUStat returns the host-wide CPU tick counters of /proc/stat (user,
// nice, system, idle, iowait, irq, softirq, steal, ...), or nil where the
// file is absent.
func readCPUStat() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	ticks := make([]int64, len(f)-1)
	for i, s := range f[1:] {
		ticks[i], _ = strconv.ParseInt(s, 10, 64)
	}
	return ticks
}

// stealShare is the share of CPU time between two readCPUStat samples that
// a hypervisor gave to other guests. A run on a shared host reports it, so
// a slow run can be told apart from a slow program.
func stealShare(a, b []int64) (float64, bool) {
	if len(a) < 8 || len(a) != len(b) {
		return 0, false
	}
	var total int64
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0, false
	}
	return float64(b[7]-a[7]) / float64(total), true
}
