package route

import (
	"fmt"
	"testing"

	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/frames"
	"repro/internal/netlist"
	"repro/internal/phys"
	"repro/internal/ucf"
)

// benchDesigns are the reroute workloads: an S-box bank routed free, and
// the same bank confined to a column band, whose cell-to-cell nets search
// through a region mask.
var benchDesigns = []struct {
	name   string
	masked bool // some net routes under a region mask
	design func(testing.TB) (*phys.Design, Options)
}{
	{"unconstrained", false, func(t testing.TB) (*phys.Design, Options) {
		return placeDesign(t, "XCV50", sboxBank(t), nil, 2), Options{}
	}},
	{"region", true, constrainedBenchDesign},
}

func sboxBank(t testing.TB) *netlist.Design {
	nl, err := designs.Standalone(designs.SBoxBank{N: 16, Seed: 9}, "sb", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// constrainedBenchDesign places the S-box bank inside a full-height column
// band with its pads on the band's top and bottom edges, and confines every
// non-clock net to the band, as the variant flow does for a module.
func constrainedBenchDesign(t testing.TB) (*phys.Design, Options) {
	rg := frames.Region{R1: 0, C1: 4, R2: device.MustByName("XCV50").Rows - 1, C2: 15}
	cons := ucf.New()
	cons.AddGroup("u1/*", "AG", rg)
	for i := 0; i < 4; i++ {
		cons.NetLocs[fmt.Sprintf("in%d", i)] = fmt.Sprintf("P_T%d", 5+i)
	}
	for i := 0; i < 16; i++ {
		edge, idx := "T", 9+i
		if i >= 8 {
			edge, idx = "B", 5+i-8
		}
		cons.NetLocs[fmt.Sprintf("out%d", i)] = fmt.Sprintf("P_%s%d", edge, idx)
	}
	d := placeDesign(t, "XCV50", sboxBank(t), cons, 2)
	return d, Options{RegionForNet: func(n *netlist.Net) *frames.Region {
		if n.IsClock {
			return nil
		}
		return &rg
	}}
}

// warmBencher routes the design once and then 200 more single-net
// reroutes, so what follows measures steady state.
func warmBencher(t testing.TB, d *phys.Design, opts Options, masked bool) *NetBencher {
	nb, err := NewNetBencher(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fn := range nb.nets {
		if fn.mask != nil {
			n++
		}
	}
	if masked != (n > 0) {
		nb.Close()
		t.Fatalf("%d of %d nets carry a region mask, want masked=%v", n, len(nb.nets), masked)
	}
	for i := 0; i < 200; i++ {
		if err := nb.Step(); err != nil {
			nb.Close()
			t.Fatal(err)
		}
	}
	return nb
}

// TestRouteNetZeroAlloc pins the PathFinder inner loop at zero allocations
// per net reroute once the scratch is warm — the routing half of the flow's
// hot-path contract. Everything a reroute touches (A* frontier, visited
// stamps, path buffers, the net's own tree, a constrained net's region mask)
// must come from reused storage.
func TestRouteNetZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, bd := range benchDesigns {
		t.Run(bd.name, func(t *testing.T) {
			d, opts := bd.design(t)
			nb := warmBencher(t, d, opts, bd.masked)
			defer nb.Close()
			if allocs := testing.AllocsPerRun(500, func() {
				if err := nb.Step(); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("net reroute allocates %.2f objects per net, want 0", allocs)
			}
		})
	}
}

// BenchmarkRouteNet measures one rip-up-and-reroute of a net — the unit of
// work the PathFinder iterations repeat — free and under a region mask. The
// allocation column is the contract: 0 allocs/op once the pooled scratch is
// warm.
func BenchmarkRouteNet(b *testing.B) {
	for _, bd := range benchDesigns {
		b.Run(bd.name, func(b *testing.B) {
			d, opts := bd.design(b)
			nb := warmBencher(b, d, opts, bd.masked)
			defer nb.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := nb.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestNetBencherStepsStaySearchable sanity-checks the bench hook itself:
// thousands of rip-up/reroute rounds keep occupancy coherent (every tree
// node claimed exactly once per owning net) so benchmark numbers measure a
// live router, not a corrupted one.
func TestNetBencherStepsStaySearchable(t *testing.T) {
	nl, err := designs.Standalone(designs.Counter{Bits: 8}, "cnt", "u1/")
	if err != nil {
		t.Fatal(err)
	}
	d := placeDesign(t, "XCV50", nl, nil, 1)
	nb, err := NewNetBencher(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	for i := 0; i < 2000; i++ {
		if err := nb.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	// Rebuild expected occupancy from the trees and compare.
	want := make(map[int64]int32)
	for _, fn := range nb.nets {
		for _, te := range fn.tree {
			want[int64(te.node)]++
		}
	}
	for node, occ := range nb.r.s.occ {
		if occ != want[int64(node)] {
			t.Fatalf("node %d occupancy %d, trees claim %d", node, occ, want[int64(node)])
		}
	}
}
