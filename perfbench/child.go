package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"
)

// child is a server or client process started from this binary. It
// speaks JSON lines on stdout and takes commands on stdin.
type child struct {
	name  string
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan []byte
	quit  chan struct{} // closed by stop: the reader drops what follows
	read  chan struct{} // closed when the process's stdout is drained
	once  sync.Once
	err   error
}

// startChild runs this binary again with args; ctx kills it.
func startChild(ctx context.Context, name string, args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, stdin: stdin, lines: make(chan []byte),
		quit: make(chan struct{}), read: make(chan struct{})}
	go func() {
		defer close(c.read)
		defer close(c.lines)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 64<<20)
		for sc.Scan() {
			line := append([]byte(nil), sc.Bytes()...)
			select {
			case c.lines <- line:
			case <-c.quit:
			}
		}
	}()
	return c, nil
}

// next decodes the process's next stdout line into v.
func (c *child) next(ctx context.Context, v any) error {
	select {
	case line, ok := <-c.lines:
		if !ok {
			return fmt.Errorf("%s exited before answering", c.name)
		}
		if err := json.Unmarshal(line, v); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("waiting for %s: %w", c.name, ctx.Err())
	}
}

// send writes one command line to the process.
func (c *child) send(cmd string) error {
	if _, err := fmt.Fprintln(c.stdin, cmd); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	return nil
}

// stop closes the process's stdin, which ends it, kills it if it has not
// exited after grace, and waits for it. Only the first call acts; later
// calls return its result.
func (c *child) stop(grace time.Duration) error {
	c.once.Do(func() {
		_ = c.stdin.Close() // EOF is the stop signal; a process already gone needs none
		close(c.quit)
		kill := time.AfterFunc(grace, func() { _ = c.cmd.Process.Kill() })
		<-c.read
		if err := c.cmd.Wait(); err != nil {
			c.err = fmt.Errorf("%s: %w", c.name, err)
		}
		kill.Stop()
	})
	return c.err
}
