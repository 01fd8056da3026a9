// Command perfbench is the repository's end-to-end benchmark: a closed
// loop of two-party sessions between a garbler Server and an evaluator
// Client, each in its own OS process, over one loopback TCP connection.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it
// runs the same loop with every other session traced, then drives one
// session's worth of each layer's exported calls, and prints the
// per-layer metrics. The last line of standard output is the result
// object. See README.md in this directory for the metrics and workloads.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"
)

// runBudget bounds one invocation, children included.
const runBudget = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed for every input word")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced layer run instead")
	role := fs.String("role", "bench", "process role: bench, or the server and client it starts")
	rep := fs.Int("rep", 0, "set-up repetition (server and client roles)")
	addr := fs.String("addr", "", "server address (client role)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds %d: must be at least 1", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace %d: must be 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	window := time.Duration(*seconds) * time.Second
	switch *role {
	case "bench":
		err = bench(ctx, w, *seed, window, *trace == 1)
	case "server":
		err = runServer(ctx, w, *seed, *rep)
	case "client":
		err = runClient(ctx, w, *seed, *rep, *addr, window, *trace == 1)
	default:
		err = fmt.Errorf("unknown role %q", *role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *role, err)
		return 1
	}
	return 0
}
