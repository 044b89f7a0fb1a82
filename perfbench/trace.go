package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one query share QID; Parent is
// the enclosing span's ID (0 at the top). Acc carries per-call totals
// for calls too fine-grained to record one span each (a refinement
// fetches thousands of vectors per query).
type span struct {
	ID     int                 `json:"id"`
	Parent int                 `json:"parent"`
	QID    int                 `json:"qid"`
	Name   string              `json:"name"`
	Start  int64               `json:"start_ns"`
	End    int64               `json:"end_ns"`
	Acc    map[string]accTotal `json:"acc,omitempty"`
}

type accTotal struct {
	NS    int64 `json:"ns"`
	Calls int64 `json:"calls"`
}

// tracer keeps spans in memory and writes them out once, at the end of
// the run. A nil tracer records nothing: the untraced run pays one nil
// check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its ID; close it with done.
func (t *tracer) open(name string, parent, qid int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, QID: qid, Name: name, Start: now})
	return len(t.spans)
}

// done ends span id, attaching acc when non-nil.
func (t *tracer) done(id int, acc map[string]accTotal) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Acc = acc
}

// add records an already-timed span.
func (t *tracer) add(name string, parent, qid int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, QID: qid, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
