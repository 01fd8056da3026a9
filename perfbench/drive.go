package main

import (
	"context"
	"errors"
	"fmt"
	"net"

	"arm2gc"
	"arm2gc/internal/bencher"
	"arm2gc/internal/circuit"
	"arm2gc/internal/core"
	"arm2gc/internal/cpu"
	"arm2gc/internal/gc"
	"arm2gc/internal/isa"
	"arm2gc/internal/minicc"
	"arm2gc/internal/ot"
	"arm2gc/internal/sim"
)

// driveResult is what one layer drive measured, besides its spans.
type driveResult struct {
	Cycles          int
	Gates           int
	DFFs            int
	TraceBytes      int
	OTWrites        int64
	OTBytes         int64
	ObliviousTables int
}

// drive replays one session of the workload's program and inputs
// through each layer's exported calls, with a span around every call:
// compile and link, netlist build, the per-cycle core calls of a live
// run (recording its trace) and of a replay of that trace, the input
// OT over a loopback TCP pair, and one pool refill. It checks the
// decoded outputs of both core passes against the reference. Apart from
// that session, it counts the oblivious-memory kernel's tables.
func drive(ctx context.Context, rec *recorder, k *bencher.Workload, seed int64) (*driveResult, error) {
	const sid = "drive"
	alice := aliceWords(k, seed, 0)
	bob := randomWords(bobStream(seed, 0), len(k.Bob))
	refill, err := refillSession(ctx, k, alice)
	if err != nil {
		return nil, err
	}
	res := &driveResult{}
	root := rec.begin(0, "drive", sid)

	s := rec.begin(root, "minicc.compile", sid)
	cc, err := minicc.Compile(k.C)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin(root, "isa.link", sid)
	layout, err := isa.FitLayout(cc.Asm, k.Layout)
	var prog *isa.Program
	if err == nil {
		prog, err = isa.Link(k.Name, cc.Asm, layout)
	}
	rec.end(s)
	if err != nil {
		return nil, err
	}

	s = rec.begin(root, "cpu.build", sid)
	c, err := cpu.Build(prog.Layout)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	st := c.Circuit.Stats()
	res.Gates, res.DFFs = st.Gates, st.DFFs

	pub, err := c.PublicBits(prog)
	if err != nil {
		return nil, err
	}
	in := sim.Inputs{Public: pub}
	if in.Alice, err = c.InputBits(circuit.Alice, alice); err != nil {
		return nil, err
	}
	if in.Bob, err = c.InputBits(circuit.Bob, bob); err != nil {
		return nil, err
	}
	check := func(bits []bool) error {
		return checkOutputs(k, alice, bob, cpu.OutWords(bits[:prog.Layout.OutWords*32]))
	}
	tr, err := driveLive(ctx, rec, root, c.Circuit, in, check)
	if err != nil {
		return nil, err
	}
	res.Cycles, res.TraceBytes = tr.NumCycles(), tr.MemoryBytes()
	if err := driveReplay(ctx, rec, root, c.Circuit, in, tr, check); err != nil {
		return nil, err
	}
	if res.OTWrites, res.OTBytes, err = driveOT(ctx, rec, root, len(in.Bob)); err != nil {
		return nil, err
	}
	s = rec.begin(root, "pool.refill", sid)
	_, err = refill.Record(ctx)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	rec.end(root)
	if res.ObliviousTables, err = driveOblivious(ctx, rec); err != nil {
		return nil, err
	}
	return res, nil
}

// stopWire resolves the processor's halt flag, as core.RunLocal does.
func stopWire(c *circuit.Circuit) (circuit.Wire, error) {
	stop := c.FindOutput("halted")
	if stop == nil {
		return 0, errors.New("circuit has no halted output")
	}
	return c.ResolveOutput(stop.Wires[0]), nil
}

// deliver hands both parties their input labels in process: Alice's
// directly, Bob's chosen from the pairs the OT would transfer.
func deliver(g *core.Garbler, e *core.Evaluator, in sim.Inputs) error {
	pairs := g.BobPairs()
	chosen := make([]gc.Label, len(pairs))
	for i := range pairs {
		b := 0
		if in.Bit(circuit.Bob, i) {
			b = 1
		}
		chosen[i] = pairs[i][b]
	}
	return e.SetInputs(g.AliceActiveLabels(in.Alice), chosen)
}

// spanned runs f inside a span.
func spanned(rec *recorder, parent int, name string, f func()) {
	s := rec.begin(parent, name, "drive")
	f()
	rec.end(s)
}

// driveLive is core.RunLocal's cycle loop — classify, record, garble,
// evaluate, copy flip-flops, commit — with a span around each call.
func driveLive(ctx context.Context, rec *recorder, root int, c *circuit.Circuit, in sim.Inputs, check func([]bool) error) (*core.Trace, error) {
	pass := rec.begin(root, "core.live", "drive")
	defer rec.end(pass)
	halt, err := stopWire(c)
	if err != nil {
		return nil, err
	}
	s := core.NewScheduler(c, core.Seed{}, in.Public)
	g := core.NewGarbler(s, gc.CryptoRand)
	e := core.NewEvaluator(s)
	if err := deliver(g, e, in); err != nil {
		return nil, err
	}
	tr := core.NewTraceRecorder(s)
	outs := c.OutputWires()
	for i, w := range outs {
		outs[i] = c.ResolveOutput(w)
	}
	for cyc := 1; cyc <= arm2gc.DefaultMaxCycles; cyc++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		final := cyc == arm2gc.DefaultMaxCycles
		var cs core.CycleStats
		spanned(rec, pass, "core.classify", func() { cs = s.Classify(final) })
		v, pub := s.WireState(halt)
		halted := pub && v
		spanned(rec, pass, "core.record", func() { tr.RecordCycle(cs, halted) })
		var tables []gc.Table
		spanned(rec, pass, "core.garble", func() { tables = g.GarbleCycle(nil) })
		var rest []gc.Table
		spanned(rec, pass, "core.eval", func() { rest, err = e.EvalCycle(tables) })
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("layer drive: cycle %d left %d tables", cyc, len(rest))
		}
		if halted || final {
			bits := make([]bool, len(outs))
			for i, w := range outs {
				if v, pub := s.WireState(w); pub {
					bits[i] = v
				} else {
					bits[i] = e.ActiveBit(w) != g.DecodeBit(w)
				}
			}
			if err := check(bits); err != nil {
				return nil, fmt.Errorf("layer drive, live pass: %w", err)
			}
			if !halted {
				return nil, errors.New("layer drive: program did not halt")
			}
			var t *core.Trace
			spanned(rec, pass, "core.record", func() { t = tr.Finish(true) })
			return t, nil
		}
		spanned(rec, pass, "core.copy_dffs", func() { g.CopyDFFs(); e.CopyDFFs() })
		spanned(rec, pass, "core.commit", s.Commit)
	}
	return nil, errors.New("layer drive: cycle budget exhausted")
}

// driveReplay is core.RunLocal's replay loop over the recorded trace.
func driveReplay(ctx context.Context, rec *recorder, root int, c *circuit.Circuit, in sim.Inputs, t *core.Trace, check func([]bool) error) error {
	pass := rec.begin(root, "core.replay", "drive")
	defer rec.end(pass)
	g := core.NewReplayGarbler(c, gc.CryptoRand)
	e := core.NewReplayEvaluator(c)
	if err := deliver(g, e, in); err != nil {
		return err
	}
	var tables []gc.Table
	n := t.NumCycles()
	for cyc := 1; cyc <= n; cyc++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		ct := t.Cycle(cyc)
		spanned(rec, pass, "core.replay_garble", func() { tables = g.GarbleCycleTrace(ct, cyc, tables[:0]) })
		var rest []gc.Table
		var err error
		spanned(rec, pass, "core.replay_eval", func() { rest, err = e.EvalCycleTrace(ct, cyc, tables) })
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("layer drive: replayed cycle %d left %d tables", cyc, len(rest))
		}
		if cyc == n {
			break
		}
		spanned(rec, pass, "core.copy_dffs", func() { g.CopyDFFs(); e.CopyDFFs() })
	}
	bits := make([]bool, t.NumOutputs())
	for i := range bits {
		if v, pub := t.OutputState(i); pub {
			bits[i] = v
			continue
		}
		w := t.OutputWire(i)
		bits[i] = e.ActiveBit(w) != g.DecodeBit(w)
	}
	if err := check(bits); err != nil {
		return fmt.Errorf("layer drive, replay: %w", err)
	}
	return nil
}

// driveOT transfers width random label pairs with the session's OT over
// a loopback TCP pair, sender and receiver on their own goroutines, and
// checks that the receiver got exactly its chosen labels. It returns the
// write calls and bytes of both sides together.
func driveOT(ctx context.Context, rec *recorder, root, width int) (writes, bytes int64, err error) {
	pairs := make([][2]gc.Label, width)
	choices := make([]bool, width)
	for i := range pairs {
		pairs[i] = [2]gc.Label{gc.RandLabel(gc.CryptoRand), gc.RandLabel(gc.CryptoRand)}
		choices[i] = gc.RandLabel(gc.CryptoRand).Bit()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	var d net.Dialer
	rawRecv, err := d.DialContext(ctx, "tcp", ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	defer rawRecv.Close()
	rawSend, err := ln.Accept()
	if err != nil {
		return 0, 0, err
	}
	defer rawSend.Close()
	send, recv := &tapConn{Conn: rawSend}, &tapConn{Conn: rawRecv}

	parent := rec.begin(root, "ot.transfer", "drive")
	sent := make(chan error, 1)
	go func() {
		s := rec.begin(parent, "ot.send", "drive")
		err := ot.SendLabels(send, pairs)
		rec.end(s)
		sent <- err
	}()
	s := rec.begin(parent, "ot.receive", "drive")
	got, rerr := ot.ReceiveLabels(recv, choices)
	rec.end(s)
	serr := <-sent
	rec.end(parent)
	if err := errors.Join(serr, rerr); err != nil {
		return 0, 0, fmt.Errorf("layer drive OT: %w", err)
	}
	for i, l := range got {
		b := 0
		if choices[i] {
			b = 1
		}
		if l != pairs[i][b] {
			return 0, 0, fmt.Errorf("layer drive OT: label %d is not the chosen one", i)
		}
	}
	a, b := send.counts(), recv.counts()
	return a.Writes + b.Writes, a.Out + b.Out, nil
}

// refillSession builds the session the pool's producer records with —
// the registration's options plus trace reuse — and records once, untimed,
// to fill its trace cache as the pool's warm-up does. Each later Record is
// one steady-state refill.
func refillSession(ctx context.Context, k *bencher.Workload, alice []uint32) (*arm2gc.Session, error) {
	prog, _, err := k.Program()
	if err != nil {
		return nil, err
	}
	sess, err := arm2gc.NewEngine().Session(prog, append(serverOptions(alice), arm2gc.WithTraceReuse())...)
	if err != nil {
		return nil, err
	}
	if _, err := sess.Record(ctx); err != nil {
		return nil, err
	}
	return sess, nil
}

// driveOblivious counts the garbled tables of the secret-indexed array
// kernel, whose every memory access goes through the oblivious memory.
// The count is exact and needs no cryptography. Its span is a root of
// its own: the kernel is not the workload's program.
func driveOblivious(ctx context.Context, rec *recorder) (int, error) {
	prog, _, err := bencher.RelaxWorkload(16).Program()
	if err != nil {
		return 0, err
	}
	sess, err := arm2gc.NewEngine().Session(prog)
	if err != nil {
		return 0, err
	}
	s := rec.begin(0, "obliv.count", "relax-kernel")
	info, err := sess.Count(ctx)
	rec.end(s)
	if err != nil {
		return 0, err
	}
	return info.GarbledTables, nil
}
