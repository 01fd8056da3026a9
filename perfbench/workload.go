package main

import (
	"fmt"
	"math/rand/v2"

	"arm2gc"
	"arm2gc/internal/bencher"
)

// workload is one benchmark configuration. The two differ in one
// property only: whether the server keeps a garble-ahead pool.
type workload struct {
	name   string
	pooled bool // server runs WithGarbleAhead at the default PoolConfig
	kernel func() *bencher.Workload
}

var workloads = []workload{
	{name: "hamming-cold", pooled: false, kernel: hamming},
	{name: "hamming-pooled", pooled: true, kernel: hamming},
}

func hamming() *bencher.Workload { return bencher.HammingWorkload(512) }

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// programName is what the server registers the kernel under.
const programName = "kernel"

// warmups is how many sessions each client runs before it is timed: the
// first records the client's classification trace, the second is the
// first replay.
const warmups = 2

// Session options. The client side is the same in every workload; the
// server registers every program with its input and a cycle batch of 8.
func clientOptions() []arm2gc.Option {
	return []arm2gc.Option{arm2gc.WithTraceReuse(), arm2gc.WithReadAhead(4)}
}

func serverOptions(alice []uint32) []arm2gc.Option {
	return []arm2gc.Option{arm2gc.WithGarblerInput(alice), arm2gc.WithCycleBatch(8)}
}

// Input streams. Every input word comes from the run's seed: the
// server's words from (seed, rep), the client's from a second stream of
// the same pair, so a set-up repetition gets fresh inputs on both sides
// and both processes agree on them.
func aliceWords(k *bencher.Workload, seed int64, rep int) []uint32 {
	return randomWords(rand.New(rand.NewPCG(uint64(seed), uint64(rep))), len(k.Alice))
}

func bobStream(seed int64, rep int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 1<<32|uint64(rep)))
}

func randomWords(r *rand.Rand, n int) []uint32 {
	w := make([]uint32, n)
	for i := range w {
		w[i] = r.Uint32()
	}
	return w
}

// checkOutputs compares a session's decoded outputs with the kernel's
// reference function.
func checkOutputs(k *bencher.Workload, alice, bob, got []uint32) error {
	want := k.Check(alice, bob)
	if len(got) < len(want) {
		return fmt.Errorf("got %d output words, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("output[%d] = %#x, reference %#x", i, got[i], want[i])
		}
	}
	return nil
}
