package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"arm2gc/internal/bencher"
)

// setupReps is how many times an untraced run sets up from scratch; it
// reports the median and times the window after the last one.
const setupReps = 5

// stopGrace is how long a child may take to exit once told to.
const stopGrace = 10 * time.Second

// outDir receives each run's summary and, for traced runs, its spans.
const outDir = ".bench_build/runs"

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// repResult is one set-up repetition, and for the last, its window.
type repResult struct {
	setup  time.Duration
	warm   warmReport
	client *clientReport
	server *serverReport
}

// bench runs one invocation: the set-up repetitions, the timed window,
// the checks, and for a traced run the layer drive. It prints the result
// line whenever the window ran, and fails when a check did.
func bench(ctx context.Context, w workload, seed int64, window time.Duration, traced bool) error {
	reps := setupReps
	if traced {
		reps = 1
	}
	var setups []float64
	var costs []sessionCost
	var last repResult
	for r := 0; r < reps; r++ {
		rr, err := runRep(ctx, w, seed, r, window, traced, r == reps-1)
		if err != nil {
			return fmt.Errorf("repetition %d: %w", r, err)
		}
		setups = append(setups, rr.setup.Seconds())
		costs = append(costs, rr.warm.Costs...)
		last = rr
	}
	cr, sr := last.client, last.server
	costs = append(costs, cr.Costs...)
	completed := cr.Attempted - cr.Failed

	var problems []string
	if cr.Failed > 0 {
		problems = append(problems, "session failed: "+cr.Error)
	}
	if err := inputIndependent(costs); err != nil {
		problems = append(problems, err.Error())
	}
	summary := map[string]any{"workload": w.name, "seed": seed, "traced": traced,
		"setup_s": setups, "client": cr, "server": sr}
	var property string
	if sr == nil {
		problems = append(problems, "no server report")
	} else if want := int64(completed * costs[0].Tables); sr.Tables != want {
		problems = append(problems, fmt.Sprintf("server counted %d tables for %d sessions, the client %d", sr.Tables, completed, want))
	} else if p, err := checkProperty(w, cr, sr, completed); err != nil {
		problems = append(problems, err.Error())
	} else {
		property = p
		summary["property"] = p
	}

	res := result{Attempted: cr.Attempted, Failed: cr.Failed, Metrics: map[string]metric{}}
	var err error
	if len(problems) == 0 {
		if traced {
			err = layerMetrics(ctx, w, seed, cr, sr, completed, res.Metrics, summary)
		} else {
			err = endToEnd(cr, sr, costs[0], setups, completed, res.Metrics, summary)
		}
		if err != nil {
			problems = append(problems, err.Error())
		}
	}
	res.Correct = len(problems) == 0
	summary["problems"] = problems
	if err := writeJSON(filepath.Join(outDir, runName(w, seed, traced)+".json"), summary); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d sessions; %s\n", w.name, seed, completed, property)
	if t, ok := summary["session_tail"].(tailStat); ok {
		fmt.Fprintf(os.Stderr, "perfbench: session_tail_ms is p%.1f of %d sessions\n", t.Percentile, t.Samples)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}

func runName(w workload, seed int64, traced bool) string {
	kind := "run"
	if traced {
		kind = "traced"
	}
	return fmt.Sprintf("%s-seed%d-%s", w.name, seed, kind)
}

// runRep launches a server, then a client, and measures set-up: from the
// server's launch until the client's warm-up sessions are done and the
// server's pool is full again, which is when the first timed session
// starts. The last repetition goes on to the timed window; once the
// client reports it, the server is asked for its counters, which it
// gives only after it has served every session of the window.
func runRep(ctx context.Context, w workload, seed int64, rep int, window time.Duration, traced, last bool) (repResult, error) {
	var rr repResult
	common := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-rep", strconv.Itoa(rep)}
	start := time.Now()
	srv, err := startChild(ctx, "server", append([]string{"-role", "server"}, common...)...)
	if err != nil {
		return rr, err
	}
	defer srv.stop(0) // kills it on the error paths; a no-op after the stops below
	var hello struct{ Addr string }
	if err := srv.next(ctx, &hello); err != nil {
		return rr, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := append([]string{"-role", "client", "-addr", hello.Addr,
		"-seconds", strconv.Itoa(int(window / time.Second)), "-trace", trace}, common...)
	cli, err := startChild(ctx, "client", args...)
	if err != nil {
		return rr, err
	}
	defer cli.stop(0)
	if err := cli.next(ctx, &rr.warm); err != nil {
		return rr, err
	}
	var ack struct{ Marked bool }
	if err := srv.send(fmt.Sprintf("mark %d", warmups)); err != nil {
		return rr, err
	}
	if err := srv.next(ctx, &ack); err != nil {
		return rr, err
	}
	rr.setup = time.Since(start)
	if !last {
		if err := cli.send("quit"); err != nil {
			return rr, err
		}
		return rr, errors.Join(cli.stop(stopGrace), srv.stop(stopGrace))
	}
	if err := cli.send("go"); err != nil {
		return rr, err
	}
	rr.client = new(clientReport)
	if err := cli.next(ctx, rr.client); err != nil {
		return rr, err
	}
	if err := cli.stop(stopGrace); err != nil {
		return rr, err
	}
	if rr.client.Failed == 0 {
		// The server counts a session after the client's Evaluate has
		// returned; report waits until it has counted all of them.
		rr.server = new(serverReport)
		if err := srv.send(fmt.Sprintf("report %d", warmups+rr.client.Attempted)); err != nil {
			return rr, err
		}
		if err := srv.next(ctx, rr.server); err != nil {
			return rr, err
		}
	}
	return rr, srv.stop(stopGrace)
}

// inputIndependent checks that every session, over all inputs the run
// drew, garbled the same number of tables and moved the same bytes.
func inputIndependent(costs []sessionCost) error {
	for _, c := range costs[1:] {
		if c != costs[0] {
			return fmt.Errorf("cost depends on private inputs: %d tables / %d wire bytes, then %d / %d",
				costs[0].Tables, costs[0].WireBytes, c.Tables, c.WireBytes)
		}
	}
	return nil
}

// checkProperty asserts the property that defines the workload and
// describes what was measured. Both workloads' traces fit the Engine's
// trace cache, so the client replays the trace in every timed session.
// The pooled workload must serve every session from the pool; the cold
// one must have no pool and a server that never replays.
func checkProperty(w workload, cr *clientReport, sr *serverReport, completed int) (string, error) {
	if sr.Served != int64(completed) {
		return "", fmt.Errorf("server served %d sessions in the window, client completed %d", sr.Served, completed)
	}
	if cr.TraceReplays != int64(completed) || cr.TraceRecordings != 0 {
		return "", fmt.Errorf("client replayed %d and recorded %d traces in %d sessions; want a replay in each",
			cr.TraceReplays, cr.TraceRecordings, completed)
	}
	replays := fmt.Sprintf("client replayed the trace in %d/%d sessions", cr.TraceReplays, completed)
	if w.pooled {
		if !sr.Pooled || sr.PoolMisses != 0 || sr.PoolHits != int64(completed) {
			return "", fmt.Errorf("pool served %d hits and %d misses in %d sessions; want a hit in each",
				sr.PoolHits, sr.PoolMisses, completed)
		}
		return fmt.Sprintf("pool hit ratio %d/%d; %s", sr.PoolHits, completed, replays), nil
	}
	if sr.Pooled {
		return "", errors.New("cold workload ran with a pool")
	}
	if sr.TraceReplays != 0 {
		return "", fmt.Errorf("cold server replayed %d traces; it must classify every cycle live", sr.TraceReplays)
	}
	return "no pool; server replayed 0 traces; " + replays, nil
}

// endToEnd fills the untraced run's metrics.
func endToEnd(cr *clientReport, sr *serverReport, cost sessionCost, setups []float64, completed int, m map[string]metric, summary map[string]any) error {
	p50, err := median(cr.SessionMs)
	if err != nil {
		return err
	}
	t, err := tail(cr.SessionMs, tailMinBeyond)
	if err != nil {
		return err
	}
	summary["session_tail"] = t
	setup, err := median(setups)
	if err != nil {
		return err
	}
	srvCPU, err := perSession(float64(sr.CPU)/float64(time.Millisecond), completed)
	if err != nil {
		return err
	}
	cliCPU, err := perSession(float64(cr.CPU)/float64(time.Millisecond), completed)
	if err != nil {
		return err
	}
	m["session_p50_ms"] = metric{p50, "ms"}
	m["session_tail_ms"] = metric{t.Value, "ms"}
	m["sessions_per_s"] = metric{float64(completed) / cr.Window.Seconds(), "1/s"}
	m["server_cpu_ms_per_session"] = metric{srvCPU, "ms"}
	m["client_cpu_ms_per_session"] = metric{cliCPU, "ms"}
	m["wire_bytes_per_session"] = metric{float64(cost.WireBytes), "bytes"}
	m["garbled_tables_per_session"] = metric{float64(cost.Tables), "count"}
	m["server_peak_rss_mb"] = metric{float64(sr.PeakRSS) / mib, "MiB"}
	m["client_peak_rss_mb"] = metric{float64(cr.PeakRSS) / mib, "MiB"}
	m["setup_s"] = metric{setup, "s"}
	m["session_success_ratio"] = metric{float64(completed) / float64(cr.Attempted), "ratio"}
	return nil
}

// layerMetrics runs the layer drive and fills the traced run's metrics.
func layerMetrics(ctx context.Context, w workload, seed int64, cr *clientReport, sr *serverReport, completed int, m map[string]metric, summary map[string]any) error {
	rec := newRecorder(0)
	d, err := drive(ctx, rec, w.kernel(), seed)
	if err != nil {
		return err
	}
	if d.Cycles != cr.Cycles {
		return fmt.Errorf("layer drive ran %d cycles, the sessions %d", d.Cycles, cr.Cycles)
	}
	spans := rec.all()
	a := aggregate(spans)
	cyc := float64(d.Cycles)
	us := func(name string) float64 { return float64(a[name].Total) / float64(time.Microsecond) }
	ms := func(name string) float64 { return float64(a[name].Total) / float64(time.Millisecond) }
	m["core.classify_us_per_cycle"] = metric{us("core.classify") / cyc, "us"}
	m["core.commit_us_per_cycle"] = metric{us("core.commit") / cyc, "us"}
	m["core.garble_us_per_cycle"] = metric{us("core.garble") / cyc, "us"}
	m["core.eval_us_per_cycle"] = metric{us("core.eval") / cyc, "us"}
	m["core.record_us_per_cycle"] = metric{us("core.record") / cyc, "us"}
	m["core.copy_dffs_us_per_cycle"] = metric{us("core.copy_dffs") / float64(a["core.copy_dffs"].Count), "us"}
	m["core.replay_garble_us_per_cycle"] = metric{us("core.replay_garble") / cyc, "us"}
	m["core.replay_eval_us_per_cycle"] = metric{us("core.replay_eval") / cyc, "us"}
	m["core.cycles_per_session"] = metric{cyc, "count"}
	m["core.gates_per_cycle"] = metric{float64(d.Gates), "count"}
	m["core.dffs_per_cycle"] = metric{float64(d.DFFs), "count"}
	m["ot.send_ms_per_session"] = metric{ms("ot.send"), "ms"}
	m["ot.receive_ms_per_session"] = metric{ms("ot.receive"), "ms"}
	m["ot.messages_per_session"] = metric{float64(d.OTWrites), "count"}
	m["ot.bytes_per_session"] = metric{float64(d.OTBytes), "bytes"}
	m["cpu.build_ms"] = metric{ms("cpu.build"), "ms"}
	m["cpu.trace_mb"] = metric{float64(d.TraceBytes) / mib, "MiB"}
	m["minicc.compile_ms"] = metric{ms("minicc.compile") + ms("isa.link"), "ms"}
	m["obliv.tables_per_access"] = metric{float64(d.ObliviousTables) / bencher.RelaxAccesses, "count"}
	m["pool.refill_ms"] = metric{ms("pool.refill"), "ms"}

	replays, err := perSession(float64(cr.TraceReplays), completed)
	if err != nil {
		return err
	}
	refills, err := perSession(float64(sr.Refills), completed)
	if err != nil {
		return err
	}
	m["cpu.trace_replay_ratio"] = metric{replays, "ratio"}
	m["pool.refills_per_session"] = metric{refills, "count"}
	hitRatio := 0.0
	if sr.Pooled {
		hitRatio = float64(sr.PoolHits) / float64(sr.PoolHits+sr.PoolMisses)
	}
	m["pool.hit_ratio"] = metric{hitRatio, "ratio"}

	if err := protoMetrics(cr, m); err != nil {
		return err
	}
	untraced, err := median(cr.SessionMs)
	if err != nil {
		return err
	}
	traced, err := median(cr.TracedMs)
	if err != nil {
		return err
	}
	m["trace.untraced_p50_ms"] = metric{untraced, "ms"}
	m["trace.traced_p50_ms"] = metric{traced, "ms"}
	m["trace.overhead_ms"] = metric{traced - untraced, "ms"}

	all := append(spans, cr.Spans...)
	var session []span
	for _, s := range spans {
		if s.Session == "drive" {
			session = append(session, s)
		}
	}
	driveShares, sessionShares := layerShares(session), layerShares(cr.Spans)
	summary["drive_shares_pct"] = driveShares
	summary["session_shares_pct"] = sessionShares
	summary["spans"] = aggregate(all)
	cr.Spans = nil // written to the span file, not the summary
	logShares("layer drive", driveShares)
	logShares("traced sessions", sessionShares)
	return writeSpans(filepath.Join(outDir, runName(w, seed, true)+".spans.jsonl"), all)
}

// protoMetrics takes the medians of the traced sessions' socket counts.
func protoMetrics(cr *clientReport, m map[string]metric) error {
	field := func(f func(protoSample) float64) (float64, error) {
		xs := make([]float64, len(cr.Proto))
		for i, p := range cr.Proto {
			xs[i] = f(p)
		}
		return median(xs)
	}
	for _, p := range []struct {
		name, unit string
		f          func(protoSample) float64
	}{
		{"proto.negotiate_ms", "ms", func(p protoSample) float64 { return float64(p.Negotiate) / float64(time.Millisecond) }},
		{"proto.read_wait_ms_per_session", "ms", func(p protoSample) float64 { return float64(p.ReadWait) / float64(time.Millisecond) }},
		{"proto.table_frames_per_session", "count", func(p protoSample) float64 { return float64(p.TableFrames) }},
		{"proto.writes_per_session", "count", func(p protoSample) float64 { return float64(p.Writes) }},
		{"proto.turns_per_session", "count", func(p protoSample) float64 { return float64(p.Turns) }},
	} {
		v, err := field(p.f)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		m[p.name] = metric{v, p.unit}
	}
	return nil
}

func logShares(what string, shares map[string]float64) {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s %.1f%%", n, shares[n])
	}
	fmt.Fprintf(os.Stderr, "perfbench: self-time shares, %s: %s\n", what, strings.Join(parts, ", "))
}

// writeJSON writes v to path, creating its directory.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
