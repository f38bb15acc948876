package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Layer: "bench", Start: 0, End: 100 * ms},
		// Overlapping children (concurrent calls) are counted once.
		{ID: 1, Parent: 0, Layer: "flow", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Layer: "core", Start: 30 * ms, End: 50 * ms},
		// A child reaching past its parent is clipped to it.
		{ID: 3, Parent: 0, Layer: "xhwif", Start: 90 * ms, End: 120 * ms},
		// Grandchild: charged to its own layer, and only out of its parent.
		{ID: 4, Parent: 1, Layer: "route", Start: 15 * ms, End: 35 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench": 100*ms - (40*ms + 10*ms), // [10,50) and [90,100) covered
		"flow":  30*ms - 20*ms,
		"route": 20 * ms,
		"core":  20 * ms,
		"xhwif": 30 * ms,
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self[%s] = %v, want %v", l, got[l], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
}

func TestStagesLaidEndToEnd(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch.Add(time.Second)
	root := tr.open(7, -1, "bench", "op", t0)
	tr.addStages(7, root, t0, stage{"place", "place", 3 * time.Millisecond}, stage{"route", "route", 5 * time.Millisecond})
	tr.close(root, t0.Add(10*time.Millisecond))
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	r := tr.spans[2]
	if r.Parent != root || r.Op != 7 || r.Start != time.Second+3*time.Millisecond || r.End != time.Second+8*time.Millisecond {
		t.Fatalf("route span %+v not laid after place", r)
	}
	if self := selfTimes(tr.spans); self["bench"] != 2*time.Millisecond {
		t.Fatalf("op self time %v, want 2ms", self["bench"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	now := time.Now()
	id := tr.open(0, -1, "bench", "op", now)
	tr.add(0, id, "flow", "x", now, now)
	tr.addStages(0, id, now, stage{"route", "route", time.Millisecond})
	tr.close(id, now)
	if id != -1 {
		t.Fatalf("nil tracer returned id %d", id)
	}
}
