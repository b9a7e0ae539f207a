package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Start and End are offsets from the
// tracer's creation; Parent is 0 for a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A tracer that is off
// records nothing: begin returns 0 and end ignores it, so untraced runs
// pay two clock reads per call and nothing else.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already finished span, such as one the server reported
// for a request.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) int {
	if !t.on {
		return 0
	}
	s := start.Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: s, End: s + d})
	return len(t.spans)
}

// timed runs fn inside a span and returns its wall time.
func (t *tracer) timed(name string, parent int, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.end(id)
	return d, err
}

// selfTimes returns, per span name, the summed self time (a span's
// duration minus the part of it its children cover) and the span count.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make(map[string]time.Duration)
	count = make(map[string]int)
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start - covered(s, children[s.ID])
		count[s.Name]++
	}
	return self, count
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	lo, hi := kids[0].Start, kids[0].End
	flush := func() {
		lo, hi = max(lo, parent.Start), min(hi, parent.End)
		if hi > lo {
			total += hi - lo
		}
	}
	for _, k := range kids[1:] {
		if k.Start > hi {
			flush()
			lo, hi = k.Start, k.End
			continue
		}
		hi = max(hi, k.End)
	}
	flush()
	return total
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if path == "" || !t.on {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
