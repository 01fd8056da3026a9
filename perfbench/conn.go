package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// tapConn counts what crosses one socket: bytes each way, write calls,
// and turns (a read after a write or a write after a read; over a real
// link each turn is a round trip). With timing on it also sums the time
// spent blocked in Read. Reads and writes may run on different
// goroutines (read-ahead), so the counters sit under a mutex.
type tapConn struct {
	net.Conn
	timing atomic.Bool

	mu       sync.Mutex
	c        tapCounts
	lastRead bool
	started  bool
}

// tapCounts is a snapshot of a tapConn's counters.
type tapCounts struct {
	In, Out  int64
	Writes   int64
	Turns    int64
	ReadWait time.Duration
}

func (a tapCounts) sub(b tapCounts) tapCounts {
	return tapCounts{In: a.In - b.In, Out: a.Out - b.Out, Writes: a.Writes - b.Writes,
		Turns: a.Turns - b.Turns, ReadWait: a.ReadWait - b.ReadWait}
}

// Bytes is the traffic in both directions.
func (a tapCounts) Bytes() int64 { return a.In + a.Out }

// turn records the direction of one transfer.
func (c *tapConn) turn(read bool) {
	if c.started && c.lastRead != read {
		c.c.Turns++
	}
	c.started, c.lastRead = true, read
}

func (c *tapConn) Read(p []byte) (int, error) {
	timed := c.timing.Load()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.c.In += int64(n)
	if n > 0 {
		c.turn(true)
	}
	if timed {
		c.c.ReadWait += time.Since(t0)
	}
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.c.Out += int64(n)
	c.c.Writes++
	if n > 0 {
		c.turn(false)
	}
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) counts() tapCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c
}
