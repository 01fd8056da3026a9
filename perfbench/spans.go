package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one session share
// Session; Parent is the enclosing span's ID, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Session string `json:"session"`
	Start   int64  `json:"start_ns"` // Unix nanoseconds
	End     int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span belongs to: its name up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps spans in memory until the run writes them out. IDs are
// unique within one recorder; idBase keeps two processes' recorders
// apart when their spans are merged.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	unix0  int64
	idBase int
	spans  []span
}

func newRecorder(idBase int) *recorder {
	now := time.Now()
	return &recorder{epoch: now, unix0: now.UnixNano(), idBase: idBase}
}

// now reads the monotonic clock as Unix nanoseconds.
func (r *recorder) now() int64 { return r.unix0 + int64(time.Since(r.epoch)) }

// begin opens a span and returns its ID.
func (r *recorder) begin(parent int, name, session string) int {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.idBase + len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Session: session, Start: t})
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id-r.idBase-1].End = t
	r.mu.Unlock()
}

// add records a span whose bounds were taken elsewhere.
func (r *recorder) add(parent int, name, session string, start, end int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.idBase + len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Session: session, Start: start, End: end})
	return id
}

// get returns the span with the given ID.
func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-r.idBase-1]
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes maps each span ID to its duration minus the part of it that
// its children cover. Children that overlap each other (concurrent
// calls) are counted once, and any part outside the parent is clipped.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	var curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// aggregate sums duration and self time per span name.
func aggregate(spans []span) map[string]spanAgg {
	self := selfTimes(spans)
	out := make(map[string]spanAgg)
	for _, s := range spans {
		a := out[s.Name]
		a.Count++
		a.Total += s.dur()
		a.Self += self[s.ID]
		out[s.Name] = a
	}
	return out
}

// layerShares is each layer's share of all self time among spans, in
// percent. Self times of all spans in a tree add up to its root's
// duration, so the shares say where a traced run's time went.
func layerShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byLayer := make(map[string]time.Duration)
	var total time.Duration
	for _, s := range spans {
		byLayer[s.layer()] += self[s.ID]
		total += self[s.ID]
	}
	out := make(map[string]float64, len(byLayer))
	if total <= 0 {
		return out
	}
	for l, d := range byLayer {
		out[l] = 100 * float64(d) / float64(total)
	}
	return out
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
