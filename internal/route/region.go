package route

import (
	"repro/internal/device"
	"repro/internal/frames"
)

// Region-constrained routing. A net constrained to a region may only use
// routing resources whose configuration lives in the region's columns and
// whose electrical extent stays controlled:
//
//   - per-tile wires of tiles inside the region;
//   - pads adjacent to region tiles;
//   - global lines (clock distribution is region-independent);
//   - column long lines of region columns, only when the region spans the
//     device's full height (otherwise the line crosses foreign rows);
//   - row long lines of region rows, only when the region spans the full
//     width.
//
// This is the containment discipline module-based partial reconfiguration
// needs: everything a module's netlist configures then lives in its own
// columns, so rewriting those columns swaps the module completely.

// regionMask is the containment test for nets constrained to one region: a
// pip is allowed iff its tile lies in r and both its nodes are admitted by
// ok. The per-node answer is computed once per region, so the A* inner loop
// pays two slice loads per expanded edge instead of classifying each node.
type regionMask struct {
	r  frames.Region
	ok []bool // indexed by device.NodeID
}

// newRegionMask admits every node of p the discipline above allows for r.
// It is the router's single definition of region containment.
func newRegionMask(p *device.Part, r frames.Region) *regionMask {
	fullHeight := r.R1 == 0 && r.R2 == p.Rows-1
	fullWidth := r.C1 == 0 && r.C2 == p.Cols-1
	ok := make([]bool, p.NumNodes())
	for i := range ok {
		d := p.DescribeNode(device.NodeID(i))
		switch d.Kind {
		case device.NodeWire:
			ok[i] = r.Contains(d.A, d.B)
		case device.NodeGlobal:
			ok[i] = true
		case device.NodeColLong:
			ok[i] = fullHeight && d.B >= r.C1 && d.B <= r.C2
		case device.NodeRowLong:
			ok[i] = fullWidth && d.A >= r.R1 && d.A <= r.R2
		case device.NodePadI, device.NodePadO:
			pr, pc := p.PadTile(d.Pad)
			ok[i] = r.Contains(pr, pc)
		}
	}
	return &regionMask{r: r, ok: ok}
}

// allows reports whether a constrained net may use pip.
func (m *regionMask) allows(pip device.PIP) bool {
	return m.r.Contains(pip.Row, pip.Col) && m.ok[pip.Src] && m.ok[pip.Dst]
}
