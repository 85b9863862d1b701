package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps spans in memory during a traced run and writes them as
// Chrome trace-event JSON at exit (it opens in Perfetto). Spans are
// recorded only in this package, around calls into the program's public
// entry points; the program itself is not instrumented. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	id, parent int
	lane       int
	name       string
	start, end time.Duration
}

// span is an open span; end closes it.
type span struct {
	tr    *tracer
	id    int
	lane  int
	start time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (nil for a root) on the parent's lane.
func (t *tracer) start(name string, parent *span) *span {
	lane := 0
	if parent != nil {
		lane = parent.lane
	}
	return t.startLane(name, parent, lane)
}

// startLane opens a span on an explicit lane: concurrent load-generator
// clients each get their own, so their spans nest correctly in a viewer.
func (t *tracer) startLane(name string, parent *span, lane int) *span {
	if t == nil {
		return nil
	}
	pid := 0
	if parent != nil {
		pid = parent.id
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{id: id, parent: pid, lane: lane, name: name})
	t.mu.Unlock()
	return &span{tr: t, id: id, lane: lane, start: time.Since(t.t0)}
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Since(s.tr.t0)
	s.tr.mu.Lock()
	rec := &s.tr.spans[s.id-1]
	rec.start, rec.end = s.start, now
	s.tr.mu.Unlock()
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes every closed span as a complete ("X") event with
// its id and parent id in args.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end == 0 {
			continue // never closed
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: s.lane,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
