package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded by the benchmark around a call into a
// layer of the program (or, for CAD stages and server handlers, an interval
// the program itself reported). Spans of one operation share op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root
	Op     int    `json:"op"`
	Layer  string `json:"layer"` // the module the time is charged to
	Name   string `json:"name"`  // the call, e.g. "flow.BuildVariant"
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (-1 on a nil tracer).
func (t *tracer) add(op, parent int, layer, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// open records a span whose end is not known yet, so children can name it
// as their parent; close sets the end.
func (t *tracer) open(op, parent int, layer, name string, start time.Time) int {
	return t.add(op, parent, layer, name, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.epoch)
	t.mu.Unlock()
}

// stage is one sub-interval a layer reported as a duration only (the CAD
// stage times in flow.StageTimes, the diff/apply split of an edit).
type stage struct {
	layer, name string
	d           time.Duration
}

// addStages lays reported stage durations end to end from start, as
// children of parent. The program reports how long each stage took, not
// when it started; stages run sequentially, so only their order is assumed.
func (t *tracer) addStages(op, parent int, start time.Time, stages ...stage) {
	for _, s := range stages {
		t.add(op, parent, s.layer, s.name, start, start.Add(s.d))
		start = start.Add(s.d)
	}
}

// selfTimes charges each span's self time (its duration minus the part of
// its interval that its children cover) to the span's layer.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// write saves the spans as JSON for later inspection.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
