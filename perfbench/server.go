package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"arm2gc"
)

// serverReport is the garbler process's account of a timed window: the
// CPU it spent, from the window's mark until every session of the window
// was served and the pool refilled, and the counter deltas over the same
// span.
type serverReport struct {
	CPU          time.Duration `json:"cpu_ns"`
	PeakRSS      int64         `json:"peak_rss_bytes"`
	Served       int64         `json:"served"`
	Pooled       bool          `json:"pooled"`
	PoolHits     int64         `json:"pool_hits"`
	PoolMisses   int64         `json:"pool_misses"`
	Refills      int64         `json:"refills"`
	RefillTime   time.Duration `json:"refill_ns"`
	Tables       int64         `json:"tables"`
	TraceReplays int64         `json:"trace_replays"` // since start
}

// runServer plays the garbler: it compiles the kernel, registers it,
// fills the pool when the workload has one, listens on loopback and
// prints the address. It then answers commands on stdin, one per line:
//
//	mark <n>    wait until n sessions are served and the pool is full,
//	            then start the window's counters
//	report <n>  wait likewise, then print the window's serverReport
//
// and shuts down when stdin closes.
func runServer(ctx context.Context, w workload, seed int64, rep int) error {
	k := w.kernel()
	prog, _, err := k.Program()
	if err != nil {
		return err
	}
	eng := arm2gc.NewEngine()
	var sopts []arm2gc.ServerOption
	if w.pooled {
		sopts = append(sopts, arm2gc.WithGarbleAhead(arm2gc.PoolConfig{}))
	}
	srv := arm2gc.NewServer(eng, sopts...)
	if err := srv.Register(programName, prog, serverOptions(aliceWords(k, seed, rep))...); err != nil {
		return err
	}
	if err := srv.WarmGarbleAhead(ctx); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]string{"addr": ln.Addr().String()}); err != nil {
		return err
	}

	var mark usage
	var base arm2gc.ServerMetrics
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd, arg, _ := strings.Cut(in.Text(), " ")
		n, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return fmt.Errorf("server command %q: %w", in.Text(), err)
		}
		if err := settle(ctx, srv, n); err != nil {
			return err
		}
		u, err := selfUsage()
		if err != nil {
			return err
		}
		m := srv.Metrics()
		switch cmd {
		case "mark":
			mark, base = u, m
			err = out.Encode(map[string]bool{"marked": true})
		case "report":
			err = out.Encode(report(mark, u, base, m, eng))
		default:
			err = fmt.Errorf("unknown server command %q", cmd)
		}
		if err != nil {
			return err
		}
	}
	if err := in.Err(); err != nil {
		return err
	}
	cancel()
	return <-served
}

// settle waits until the server has served n sessions in total and, with
// a pool, until the pool is back at full depth. Only then are the
// counters complete: SessionsServed moves after the client's Evaluate
// returns, and refill work for the last sessions is still running.
func settle(ctx context.Context, srv *arm2gc.Server, n int64) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		m := srv.Metrics()
		if m.SessionsFailed > 0 {
			return fmt.Errorf("server: %d sessions failed", m.SessionsFailed)
		}
		if m.SessionsServed >= n && poolFull(m) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: waiting for %d sessions (served %d): %w", n, m.SessionsServed, ctx.Err())
		case <-tick.C:
		}
	}
}

func poolFull(m arm2gc.ServerMetrics) bool {
	if m.GarbleAhead == nil {
		return true
	}
	p := m.GarbleAhead.Programs[programName]
	return p.Ready >= p.Depth
}

func report(u0, u1 usage, m0, m1 arm2gc.ServerMetrics, eng *arm2gc.Engine) serverReport {
	r := serverReport{
		CPU:          u1.CPU - u0.CPU,
		PeakRSS:      u1.PeakRSS,
		Served:       m1.SessionsServed - m0.SessionsServed,
		Pooled:       m1.GarbleAhead != nil,
		Tables:       m1.GarbledTables - m0.GarbledTables,
		TraceReplays: eng.TraceReplays(),
	}
	if r.Pooled {
		a, b := m0.GarbleAhead, m1.GarbleAhead
		r.PoolHits = b.Hits - a.Hits
		r.PoolMisses = b.Misses - a.Misses
		r.Refills = b.Refills - a.Refills
		r.RefillTime = time.Duration(b.RefillNanos - a.RefillNanos)
	}
	return r
}
