package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		in := slices.Clone(tc.in)
		got, err := median(in)
		if err != nil || got != tc.want {
			t.Errorf("median(%v) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !slices.Equal(in, tc.in) {
			t.Errorf("median reordered its input: %v", in)
		}
	}
	if _, err := median(nil); err == nil {
		t.Error("median of no samples: want an error")
	}
}

func TestTail(t *testing.T) {
	// 1..n in reverse order: the tail is the value with exactly ten
	// samples above it, n-10.
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		value   float64
		percent float64
	}{
		{11, 1, 100.0 / 11},
		{20, 10, 50},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		got, err := tail(samples(tc.n), 10)
		if err != nil {
			t.Fatalf("tail over %d samples: %v", tc.n, err)
		}
		if got.Value != tc.value || math.Abs(got.Percentile-tc.percent) > 1e-9 || got.Samples != tc.n {
			t.Errorf("tail over %d samples = %+v; want value %v at p%.3f", tc.n, got, tc.value, tc.percent)
		}
	}
	for _, n := range []int{0, 1, 10} {
		if _, err := tail(samples(n), 10); err == nil {
			t.Errorf("tail over %d samples: want an error, fewer than 11", n)
		}
	}
	// Ties: ten samples equal to the maximum still leave the eleventh
	// largest as the tail.
	xs := []float64{1, 2, 3, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}
	if got, _ := tail(xs, 10); got.Value != 3 {
		t.Errorf("tail with ties = %v, want 3", got.Value)
	}
}

func TestPerSession(t *testing.T) {
	got, err := perSession(1500, 3)
	if err != nil || got != 500 {
		t.Errorf("perSession(1500, 3) = %v, %v; want 500", got, err)
	}
	if _, err := perSession(10, 0); err == nil {
		t.Error("perSession over no sessions: want an error")
	}
}

// sink keeps the busy loop's result alive.
var sink float64

func TestSelfUsageCPU(t *testing.T) {
	before, err := selfUsage()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for i := 0; i < 10000; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
	after, err := selfUsage()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := windowCPU(before, after)
	if err != nil {
		t.Fatal(err)
	}
	// A spinning goroutine accrues CPU at close to wall speed; allow for
	// a loaded machine, but not for a counter that did not move.
	if cpu < 20*time.Millisecond || cpu > 10*time.Second {
		t.Errorf("100ms of spinning accounted as %v of CPU", cpu)
	}
	if _, err := windowCPU(after, before); err == nil {
		t.Error("windowCPU with the readings swapped: want an error")
	}
}

func TestSelfUsagePeakRSS(t *testing.T) {
	before, err := selfUsage()
	if err != nil {
		t.Fatal(err)
	}
	const size = 64 << 20
	buf := make([]byte, size)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1 // touch every page so it is resident
	}
	after, err := selfUsage()
	if err != nil {
		t.Fatal(err)
	}
	if after.PeakRSS < before.PeakRSS+size/2 && after.PeakRSS < size {
		t.Errorf("peak RSS went from %d to %d bytes after touching %d", before.PeakRSS, after.PeakRSS, size)
	}
	sink += float64(buf[len(buf)-4096])
}
