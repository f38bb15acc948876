package jbits

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/frames"
)

// randomMemory fills a memory frame by frame with all-zero, sparse or dense
// random words, so region clears meet frames that do and do not change.
func randomMemory(p *device.Part, rng *rand.Rand) *frames.Memory {
	m := frames.New(p)
	for f, ok := p.FirstFAR(), true; ok; f, ok = p.NextFAR(f) {
		w := m.Frame(f)
		switch rng.Intn(3) {
		case 1:
			w[rng.Intn(len(w))] = 1 << rng.Intn(32)
		case 2:
			for i := range w {
				w[i] = rng.Uint32()
			}
		}
	}
	return m
}

// clearPerBit is the reference blanking: every local bit of every CLB in
// the region cleared through SetBit.
func clearPerBit(m *frames.Memory, rg frames.Region) {
	for r := rg.R1; r <= rg.R2; r++ {
		for c := rg.C1; c <= rg.C2; c++ {
			for b := 0; b < device.CLBLocalBits; b++ {
				m.SetBit(m.Part.CLBBit(r, c, b), false)
			}
		}
	}
}

// TestClearRegionMatchesPerBit checks stripe-wise ClearRegion and ClearCLB
// against the per-bit loop on random memories and regions: same frame
// contents and, with tracking on, the same dirty frames.
func TestClearRegionMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	dirty := 0
	for _, name := range []string{"XCV50", "XCV300"} {
		p := device.MustByName(name)
		for trial := 0; trial < 40; trial++ {
			rg := frames.NewRegion(rng.Intn(p.Rows), rng.Intn(p.Cols), rng.Intn(p.Rows), rng.Intn(p.Cols))
			single := trial%4 == 0
			if single {
				rg = frames.Region{R1: rg.R1, C1: rg.C1, R2: rg.R1, C2: rg.C1}
			}
			tracking := trial%2 == 0
			got := randomMemory(p, rng)
			want := got.Clone()
			if tracking {
				got.StartTracking()
				want.StartTracking()
			}
			var err error
			if single {
				err = New(got).ClearCLB(rg.R1, rg.C1)
			} else {
				err = New(got).ClearRegion(rg)
			}
			if err != nil {
				t.Fatal(err)
			}
			clearPerBit(want, rg)
			if !got.Equal(want) {
				diff, _ := got.Diff(want)
				t.Fatalf("%s %v: %d frames differ from the per-bit clear, first %v", name, rg, len(diff), diff[0])
			}
			if got.Tracking() != tracking {
				t.Fatalf("%s %v: tracking %v, want %v", name, rg, got.Tracking(), tracking)
			}
			g, w := got.DirtyFARs(), want.DirtyFARs()
			if !slices.Equal(g, w) {
				t.Fatalf("%s %v (tracking %v): dirty frames %v, per-bit clear %v", name, rg, tracking, g, w)
			}
			dirty += len(w)
		}
	}
	if dirty == 0 {
		t.Fatal("no trial dirtied a frame; the dirty-bit comparison checked nothing")
	}
}

// BenchmarkClearRegion blanks one Figure 4-sized module region (full
// height, four columns) on a tracked XCV50 memory.
func BenchmarkClearRegion(b *testing.B) {
	p := device.MustByName("XCV50")
	m := randomMemory(p, rand.New(rand.NewSource(1)))
	m.StartTracking()
	j := New(m)
	rg := frames.Region{R1: 0, C1: 8, R2: p.Rows - 1, C2: 11}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.ClearRegion(rg); err != nil {
			b.Fatal(err)
		}
	}
}
