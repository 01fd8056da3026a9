package main

import (
	"errors"
	"fmt"
	"sort"
	"syscall"
	"time"
)

// tailMinBeyond is how many samples must lie above the reported tail
// percentile: fewer makes the "tail" one or two unlucky sessions.
const tailMinBeyond = 10

var errNoSamples = errors.New("no samples")

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples for
// an even count.
func median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errNoSamples
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], nil
	}
	return (s[n/2-1] + s[n/2]) / 2, nil
}

// tailStat is the highest percentile of a sample set that still has
// tailMinBeyond samples above it, with the percentile and sample count it
// was read at.
type tailStat struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"` // share of samples at or below Value, in percent
	Samples    int     `json:"samples"`
}

// tail picks the sample with exactly minBeyond samples ranked above it,
// the highest rank the definition allows. It fails when there are not
// minBeyond+1 samples.
func tail(xs []float64, minBeyond int) (tailStat, error) {
	n := len(xs)
	if n < minBeyond+1 {
		return tailStat{}, fmt.Errorf("tail: %d samples, need at least %d", n, minBeyond+1)
	}
	s := sortedCopy(xs)
	k := n - 1 - minBeyond
	return tailStat{Value: s[k], Percentile: 100 * float64(k+1) / float64(n), Samples: n}, nil
}

// perSession divides a window total by the sessions completed in it.
func perSession(total float64, sessions int) (float64, error) {
	if sessions < 1 {
		return 0, fmt.Errorf("per-session ratio over %d sessions", sessions)
	}
	return total / float64(sessions), nil
}

// usage is one process's resource counters at an instant.
type usage struct {
	CPU     time.Duration `json:"cpu_ns"`         // user + system time so far
	PeakRSS int64         `json:"peak_rss_bytes"` // high-water resident set
}

// selfUsage reads the calling process's counters.
func selfUsage() (usage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}, fmt.Errorf("getrusage: %w", err)
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	// Linux reports ru_maxrss in KiB.
	return usage{CPU: cpu, PeakRSS: ru.Maxrss * 1024}, nil
}

// windowCPU is the CPU a process spent between two readings.
func windowCPU(before, after usage) (time.Duration, error) {
	d := after.CPU - before.CPU
	if d < 0 {
		return 0, fmt.Errorf("cpu went backwards: %v then %v", before.CPU, after.CPU)
	}
	return d, nil
}

const mib = 1 << 20
