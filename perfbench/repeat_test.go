package main

import (
	"testing"
	"time"
)

// countMetrics are the per-layer metrics that count work rather than time
// it; for a given seed they must repeat exactly.
var countMetrics = []string{
	"route.searches", "route.heap_pushes", "route.iterations", "route.search_retries",
	"route.nets_per_search", "place.moves_proposed", "place.accept_ratio",
	"core.frames_changed_ratio", "flow.dirty_frames", "flow.rebuilds", "cache.hit_ratio",
	"bitstream.bytes_per_op", "jpgd.exec_per_request", "jpgd.artifact_hit_ratio",
	"jpgd.coalesce_followers", "jpgd.shed", "fail_share",
}

func TestTracedCountsRepeatForASeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for name, fn := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 5, window: time.Second, trace: true}
			a, err := fn(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fn(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []*outcome{a, b} {
				if len(o.problems) > 0 || o.failed > 0 {
					t.Fatalf("checks failed: %v", o.problems)
				}
			}
			for _, m := range countMetrics {
				if a.layer[m] != b.layer[m] {
					t.Errorf("%s: %v then %v", m, a.layer[m], b.layer[m])
				}
			}
		})
	}
}
