package route

import (
	"testing"

	"repro/internal/device"
	"repro/internal/frames"
)

// refRegionFilter is the per-pip containment predicate the router used
// before region masks: it classifies both nodes of every pip it is asked
// about. It stays here as the reference the mask must agree with.
func refRegionFilter(p *device.Part, r frames.Region) func(device.PIP) bool {
	fullHeight := r.R1 == 0 && r.R2 == p.Rows-1
	fullWidth := r.C1 == 0 && r.C2 == p.Cols-1
	nodeOK := func(n device.NodeID) bool {
		d := p.DescribeNode(n)
		switch d.Kind {
		case device.NodeWire:
			return r.Contains(d.A, d.B)
		case device.NodeGlobal:
			return true
		case device.NodeColLong:
			return fullHeight && d.B >= r.C1 && d.B <= r.C2
		case device.NodeRowLong:
			return fullWidth && d.A >= r.R1 && d.A <= r.R2
		case device.NodePadI, device.NodePadO:
			pr, pc := p.PadTile(d.Pad)
			return r.Contains(pr, pc)
		}
		return false
	}
	return func(pip device.PIP) bool {
		return r.Contains(pip.Row, pip.Col) && nodeOK(pip.Src) && nodeOK(pip.Dst)
	}
}

// TestRegionMaskMatchesPredicate checks the mask against the reference
// predicate on every pip of two parts, for regions that exercise each node
// kind's rule: a lone CLB, a corner block touching the pads, a full-height
// band (column long lines) and a full-width band (row long lines). Each
// region must also admit at least one pip through the node kind its shape
// is there to cover, so the comparison cannot pass vacuously.
func TestRegionMaskMatchesPredicate(t *testing.T) {
	for _, name := range []string{"XCV50", "XCV100"} {
		p := device.MustByName(name)
		g := device.NewGraph(p)
		for _, tc := range []struct {
			name  string
			r     frames.Region
			cover device.NodeKind
		}{
			{"single-clb", frames.Region{R1: 5, C1: 7, R2: 5, C2: 7}, device.NodeWire},
			{"edge", frames.Region{R1: 0, C1: 0, R2: 3, C2: 4}, device.NodePadI},
			{"full-height", frames.Region{R1: 0, C1: 6, R2: p.Rows - 1, C2: 9}, device.NodeColLong},
			{"full-width", frames.Region{R1: 4, C1: 0, R2: 6, C2: p.Cols - 1}, device.NodeRowLong},
		} {
			ref := refRegionFilter(p, tc.r)
			m := newRegionMask(p, tc.r)
			allowed, covered := 0, 0
			for n := 0; n < p.NumNodes(); n++ {
				for _, pip := range g.From(device.NodeID(n)) {
					got := m.allows(pip)
					if want := ref(pip); got != want {
						t.Fatalf("%s %s: pip %s -> %s at R%dC%d: mask %v, predicate %v",
							name, tc.name, p.NodeName(pip.Src), p.NodeName(pip.Dst),
							pip.Row+1, pip.Col+1, got, want)
					}
					if got {
						allowed++
						if p.DescribeNode(pip.Src).Kind == tc.cover || p.DescribeNode(pip.Dst).Kind == tc.cover {
							covered++
						}
					}
				}
			}
			if covered == 0 {
				t.Errorf("%s %s: %d pips allowed, none through a kind-%d node", name, tc.name, allowed, tc.cover)
			}
		}
	}
}
