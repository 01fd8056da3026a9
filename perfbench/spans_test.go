package main

import (
	"io"
	"math"
	"net"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "drive", Start: ms(0), End: ms(100)},
		// Two children overlapping each other (concurrent calls) cover
		// 10..50 once.
		{ID: 2, Parent: 1, Name: "ot.send", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "ot.receive", Start: ms(20), End: ms(50)},
		// A third child sticks out of its parent and is clipped at 100.
		{ID: 4, Parent: 1, Name: "core.live", Start: ms(90), End: ms(120)},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 4, Name: "core.classify", Start: ms(95), End: ms(105)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 50 * time.Millisecond, // 100 - (10..50) - (90..100)
		2: 30 * time.Millisecond,
		3: 30 * time.Millisecond,
		4: 20 * time.Millisecond,
		5: 10 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}

	agg := aggregate(spans)
	if a := agg["ot.send"]; a.Count != 1 || a.Total != 30*time.Millisecond {
		t.Errorf("aggregate ot.send = %+v", a)
	}
	shares := layerShares(spans)
	// Self times: drive 50, ot 60, core 30 of 140.
	for layer, w := range map[string]float64{"drive": 50.0 / 140 * 100, "ot": 60.0 / 140 * 100, "core": 30.0 / 140 * 100} {
		if math.Abs(shares[layer]-w) > 1e-9 {
			t.Errorf("share of %s = %.3f%%, want %.3f%%", layer, shares[layer], w)
		}
	}
}

func TestRecorder(t *testing.T) {
	r := newRecorder(100)
	root := r.begin(0, "session.evaluate", "s1")
	child := r.begin(root, "proto.negotiate", "s1")
	r.end(child)
	r.end(root)
	if root != 101 || child != 102 {
		t.Fatalf("ids %d, %d; want 101, 102", root, child)
	}
	got := r.all()
	if len(got) != 2 || got[1].Parent != root || got[0].End < got[1].End || got[1].Start < got[0].Start {
		t.Fatalf("spans %+v do not nest", got)
	}
}

func TestTapConnCounts(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	tap := &tapConn{Conn: a}
	tap.timing.Store(true)
	done := make(chan error, 1)
	go func() {
		// The peer reads 3+2 bytes, then answers with 4.
		buf := make([]byte, 5)
		if _, err := io.ReadFull(b, buf); err != nil {
			done <- err
			return
		}
		_, err := b.Write([]byte("pong"))
		done <- err
	}()
	if _, err := tap.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := tap.Write([]byte("de")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(tap, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c := tap.counts()
	if c.Out != 5 || c.In != 4 || c.Bytes() != 9 || c.Writes != 2 || c.Turns != 1 {
		t.Errorf("counts %+v; want 5 out, 4 in, 2 writes, 1 turn", c)
	}
	if c.ReadWait <= 0 {
		t.Errorf("read wait %v with timing on; want > 0", c.ReadWait)
	}
	if d := c.sub(c); d != (tapCounts{}) {
		t.Errorf("a snapshot minus itself = %+v", d)
	}
	_ = tap.Close() // the test is done with the pipe
}
