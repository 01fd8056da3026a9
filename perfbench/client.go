package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"time"

	"arm2gc"
	"arm2gc/internal/bencher"
	"arm2gc/internal/proto"
)

// sessionCost is what one session put on the wire and garbled. Both are
// exact counts, and SkipGate makes them independent of the private
// inputs, so every session of a workload must report the same pair.
type sessionCost struct {
	Tables    int   `json:"tables"`
	WireBytes int64 `json:"wire_bytes"`
}

// warmReport is the client's message once its warm-up sessions are done.
type warmReport struct {
	Costs []sessionCost `json:"costs"`
}

// clientReport is the evaluator process's account of its timed window.
type clientReport struct {
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Error     string `json:"error,omitempty"`
	// SessionMs holds the untraced sessions' wall times, TracedMs the
	// traced ones (traced runs alternate the two).
	SessionMs []float64     `json:"session_ms"`
	TracedMs  []float64     `json:"traced_ms,omitempty"`
	Window    time.Duration `json:"window_ns"`
	CPU       time.Duration `json:"cpu_ns"`
	PeakRSS   int64         `json:"peak_rss_bytes"`
	Costs     []sessionCost `json:"costs"`
	Cycles    int           `json:"cycles"`
	// Trace-cache activity of the client's Engine over the window.
	TraceReplays    int64 `json:"trace_replays"`
	TraceRecordings int64 `json:"trace_recordings"`
	// Traced sessions only.
	Proto []protoSample `json:"proto,omitempty"`
	Spans []span        `json:"spans,omitempty"`
}

// protoSample is one traced session's socket and frame counts.
type protoSample struct {
	Negotiate   time.Duration `json:"negotiate_ns"`
	ReadWait    time.Duration `json:"read_wait_ns"`
	Writes      int64         `json:"writes"`
	Turns       int64         `json:"turns"`
	TableFrames int           `json:"table_frames"`
}

// evaluator is the client process's state: one connection, one Engine,
// and the input stream for its sessions.
type evaluator struct {
	k       *bencher.Workload
	prog    *arm2gc.Program
	eng     *arm2gc.Engine
	conn    *tapConn
	client  *arm2gc.Client
	alice   []uint32
	bobs    *rand.Rand
	rec     *recorder
	nextID  int
	samples []protoSample
}

// runClient plays the evaluator: it dials the server, runs the warm-up
// sessions and reports them, then waits on stdin for "go" (run the timed
// window and report it) or "quit".
func runClient(ctx context.Context, w workload, seed int64, rep int, addr string, window time.Duration, traced bool) error {
	k := w.kernel()
	prog, _, err := k.Program()
	if err != nil {
		return err
	}
	var d net.Dialer
	raw, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	ev := &evaluator{k: k, prog: prog, eng: arm2gc.NewEngine(), conn: &tapConn{Conn: raw},
		alice: aliceWords(k, seed, rep), bobs: bobStream(seed, rep), rec: newRecorder(1 << 30)}
	ev.client = arm2gc.NewClient(ev.conn, arm2gc.WithClientEngine(ev.eng))
	defer ev.client.Close()
	if err := ev.client.Register(programName, prog); err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	var warm warmReport
	for range warmups {
		_, cost, err := ev.session(ctx, false)
		if err != nil {
			return fmt.Errorf("warm-up session: %w", err)
		}
		warm.Costs = append(warm.Costs, cost)
	}
	if err := out.Encode(warm); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	if !in.Scan() {
		return in.Err()
	}
	switch in.Text() {
	case "quit":
		return nil
	case "go":
		rep, err := ev.timed(ctx, window, traced)
		if err != nil {
			return err
		}
		return out.Encode(rep)
	}
	return fmt.Errorf("unknown client command %q", in.Text())
}

// timed runs a closed loop of sessions until the window has passed. A
// traced window alternates untraced and traced sessions, so the two
// medians are taken under the same conditions.
func (ev *evaluator) timed(ctx context.Context, window time.Duration, traced bool) (*clientReport, error) {
	r := &clientReport{}
	u0, err := selfUsage()
	if err != nil {
		return nil, err
	}
	rep0, recs0 := ev.eng.TraceReplays(), ev.eng.TraceRecordings()
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		tr := traced && i%2 == 1
		r.Attempted++
		t0 := time.Now()
		info, cost, err := ev.session(ctx, tr)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			r.Failed++
			r.Error = err.Error()
			break // the connection is gone; nothing after this is a session
		}
		r.Costs = append(r.Costs, cost)
		r.Cycles = info.Cycles
		if tr {
			r.TracedMs = append(r.TracedMs, ms)
		} else {
			r.SessionMs = append(r.SessionMs, ms)
		}
	}
	r.Window = time.Since(start)
	u1, err := selfUsage()
	if err != nil {
		return nil, err
	}
	if r.CPU, err = windowCPU(u0, u1); err != nil {
		return nil, err
	}
	r.PeakRSS = u1.PeakRSS
	r.TraceReplays = ev.eng.TraceReplays() - rep0
	r.TraceRecordings = ev.eng.TraceRecordings() - recs0
	if traced {
		r.Spans, r.Proto = ev.rec.all(), ev.samples
	}
	return r, nil
}

// session runs one checked session on fresh client inputs.
func (ev *evaluator) session(ctx context.Context, traced bool) (*arm2gc.RunInfo, sessionCost, error) {
	bob := randomWords(ev.bobs, len(ev.k.Bob))
	before := ev.conn.counts()
	var info *arm2gc.RunInfo
	var err error
	if traced {
		info, err = ev.tracedSession(ctx, bob)
	} else {
		info, err = ev.client.Evaluate(ctx, programName, bob, clientOptions()...)
	}
	if err != nil {
		return nil, sessionCost{}, err
	}
	if err := checkOutputs(ev.k, ev.alice, bob, info.Outputs); err != nil {
		return nil, sessionCost{}, err
	}
	delta := ev.conn.counts().sub(before)
	return info, sessionCost{Tables: info.GarbledTables, WireBytes: delta.Bytes()}, nil
}

// tracedSession drives the client's two steps itself — negotiation, then
// the evaluator run — exactly as Client.Evaluate does for these options,
// with a span around each and the socket timed.
func (ev *evaluator) tracedSession(ctx context.Context, bob []uint32) (*arm2gc.RunInfo, error) {
	ev.nextID++
	sid := fmt.Sprintf("session-%d", ev.nextID)
	ev.conn.timing.Store(true)
	defer ev.conn.timing.Store(false)
	before := ev.conn.counts()

	root := ev.rec.begin(0, "session.evaluate", sid)
	neg := ev.rec.begin(root, "proto.negotiate", sid)
	grant, err := proto.Negotiate(ctx, ev.conn, proto.Proposal{Program: programName})
	ev.rec.end(neg)
	if err != nil {
		return nil, err
	}
	opts := append(clientOptions(),
		arm2gc.WithOutputMode(grant.Outputs),
		arm2gc.WithCycleBatch(grant.CycleBatch),
		arm2gc.WithMaxCycles(grant.MaxCycles))
	// The stats sink marks the first cycle: before it lie the handshake
	// and input delivery, which the OT dominates; after it, the cycle
	// stream (frame reads under it are proto.read_wait).
	var first int64
	opts = append(opts, arm2gc.WithStatsSink(func(u arm2gc.CycleUpdate) {
		if u.Cycle == 1 {
			first = ev.rec.now()
		}
	}))
	sess, err := ev.eng.Session(ev.prog, opts...)
	if err != nil {
		return nil, err
	}
	run := ev.rec.begin(root, "proto.run", sid)
	info, err := sess.Evaluate(ctx, ev.conn, bob)
	ev.rec.end(run)
	ev.rec.end(root)
	if err != nil {
		return nil, err
	}
	if runSpan := ev.rec.get(run); first > runSpan.Start {
		ev.rec.add(run, "ot.inputs", sid, runSpan.Start, first)
		ev.rec.add(run, "core.cycles", sid, first, runSpan.End)
	}
	d := ev.conn.counts().sub(before)
	ev.samples = append(ev.samples, protoSample{Negotiate: ev.rec.get(neg).dur(), ReadWait: d.ReadWait,
		Writes: d.Writes, Turns: d.Turns, TableFrames: info.TableFrames})
	return info, nil
}
