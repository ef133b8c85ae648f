package noc

import (
	"fmt"
	"testing"

	"intellinoc/internal/traffic"
)

// topologyGeometries spans every topology family over square, rectangular,
// and degenerate geometries (where the family supports them).
func topologyGeometries() []struct {
	spec string
	w, h int
} {
	return []struct {
		spec string
		w, h int
	}{
		{"mesh", 4, 4},
		{"mesh", 3, 5},
		{"mesh", 1, 8},
		{"mesh", 8, 1},
		{"torus", 4, 4},
		{"torus", 3, 3},
		{"torus", 2, 5},
		{"chiplet", 4, 4},
		{"chiplet:4x2", 8, 4},
		{"chiplet:2x3", 4, 6},
		{"routerless", 4, 4},
		{"routerless", 3, 3},
		{"routerless", 2, 2},
		{"routerless", 1, 6},
		{"routerless", 6, 1},
	}
}

func topoFor(t *testing.T, spec string, w, h int) Topology {
	t.Helper()
	cfg := Config{Topology: spec, Width: w, Height: h}
	topo, err := NewTopology(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestTopologyLinkReciprocity checks the seam's wiring contract:
// Link(id, p) = (nb, q) implies Link(nb, q) = (id, p), for every port of
// every router.
func TestTopologyLinkReciprocity(t *testing.T) {
	for _, g := range topologyGeometries() {
		t.Run(fmt.Sprintf("%s-%dx%d", g.spec, g.w, g.h), func(t *testing.T) {
			topo := topoFor(t, g.spec, g.w, g.h)
			for id := 0; id < topo.Nodes(); id++ {
				for p := 0; p < NumPorts; p++ {
					nb, q := topo.Link(id, p)
					if nb < 0 {
						continue
					}
					if nb >= topo.Nodes() || q < 0 || q >= NumPorts {
						t.Fatalf("Link(%d, %s) = (%d, %d) out of range", id, PortName(p), nb, q)
					}
					if back, bp := topo.Link(nb, q); back != id || bp != p {
						t.Fatalf("Link(%d, %s) = (%d, %s) but Link(%d, %s) = (%d, %s)",
							id, PortName(p), nb, PortName(q), nb, PortName(q), back, PortName(bp))
					}
				}
			}
		})
	}
}

// TestTopologyAllPairsReachability walks the deterministic route of every
// (src, dst) core pair hop by hop and demands it terminate at dst within
// the topology's advertised diameter, with every intermediate hop leaving
// over a wired port in a legal VC class.
func TestTopologyAllPairsReachability(t *testing.T) {
	for _, g := range topologyGeometries() {
		t.Run(fmt.Sprintf("%s-%dx%d", g.spec, g.w, g.h), func(t *testing.T) {
			topo := topoFor(t, g.spec, g.w, g.h)
			classes := topo.VCClasses()
			if classes < 1 {
				t.Fatalf("VCClasses() = %d", classes)
			}
			for src := 0; src < topo.Cores(); src++ {
				for dst := 0; dst < topo.Cores(); dst++ {
					if src == dst {
						if p, _ := topo.Route(src, src, dst); p != PortLocal {
							t.Fatalf("Route(%d, %d, %d) = %s, want local", src, src, dst, PortName(p))
						}
						continue
					}
					id, hops := src, 0
					for id != dst {
						p, class := topo.Route(id, src, dst)
						if class < -1 || class >= classes {
							t.Fatalf("Route(%d, %d, %d) class %d outside [-1, %d)", id, src, dst, class, classes)
						}
						nb, _ := topo.Link(id, p)
						if nb < 0 {
							t.Fatalf("Route(%d, %d, %d) = %s leaves over an unwired port", id, src, dst, PortName(p))
						}
						id = nb
						if hops++; hops > topo.Diameter() {
							t.Fatalf("route %d -> %d exceeded diameter %d (stuck at %d)", src, dst, topo.Diameter(), id)
						}
					}
				}
			}
		})
	}
}

// topoConfig adapts testConfig to a topology geometry.
func topoConfig(spec string, w, h int) Config {
	cfg := testConfig()
	cfg.Topology, cfg.Width, cfg.Height = spec, w, h
	return cfg
}

// TestTopologyDeadlockSmoke pushes full-random traffic through every
// topology family, plain-wire and channel-buffered, and demands complete
// delivery — the runtime check that the dateline VC scheme (and the
// chiplet hierarchy's up/down ordering) actually avoids deadlock.
func TestTopologyDeadlockSmoke(t *testing.T) {
	for _, g := range topologyGeometries() {
		for _, buffered := range []bool{false, true} {
			name := fmt.Sprintf("%s-%dx%d", g.spec, g.w, g.h)
			if buffered {
				name += "-chan"
			}
			t.Run(name, func(t *testing.T) {
				cfg := topoConfig(g.spec, g.w, g.h)
				if buffered {
					cfg.BufDepth = 2
					cfg.ChannelStages = 8
					cfg.DynamicChannelAlloc = true
					cfg.MFAC = true
				}
				const packets = 1200
				res := mustRun(t, cfg, uniformGen(t, cfg, 0.25, packets), nil)
				if res.PacketsDelivered != packets {
					t.Fatalf("delivered %d/%d packets", res.PacketsDelivered, packets)
				}
				if res.Deadlocked {
					t.Fatal("run reported a deadlock")
				}
			})
		}
	}
}

// TestTopologyShardLockstep is the per-topology bit-identity gate: the
// sharded stepper must agree with the sequential one on every
// fingerprinted state word for every topology family, not just the mesh.
func TestTopologyShardLockstep(t *testing.T) {
	for _, g := range topologyGeometries() {
		t.Run(fmt.Sprintf("%s-%dx%d", g.spec, g.w, g.h), func(t *testing.T) {
			cfg := topoConfig(g.spec, g.w, g.h)
			a, b := shardPair(t, cfg, nil, 0.12, 3, 200)
			defer b.Close()
			const maxCycles = 300_000
			for !a.Drained() && a.Cycle() < maxCycles {
				a.Step()
				b.StepUntil(a.Cycle())
				if a.Fingerprint() != b.Fingerprint() {
					diffStates(t, a, b)
				}
			}
			if !a.Drained() {
				t.Fatalf("sequential reference stalled at cycle %d", a.Cycle())
			}
			b.StepUntil(a.Cycle())
			if ra, rb := a.Snapshot(), b.Snapshot(); ra != rb {
				t.Fatalf("Results diverge:\nseq     %+v\nsharded %+v", ra, rb)
			}
		})
	}
}

// TestNACKBoundFollowsTopologyDiameter is the regression test for the
// retransmission-liveness bound: it must come from the topology's
// diameter hook — 8*(diameter+2) — which on a mesh reduces exactly to the
// legacy 8*(Width+Height) so mesh results stay bit-identical.
func TestNACKBoundFollowsTopologyDiameter(t *testing.T) {
	for _, g := range topologyGeometries() {
		cfg := topoConfig(g.spec, g.w, g.h)
		n, err := New(cfg, traffic.NewSliceGenerator(nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(8 * (n.topo.Diameter() + 2))
		if n.nackBound != want {
			t.Errorf("%s %dx%d: nackBound = %d, want %d", g.spec, g.w, g.h, n.nackBound, want)
		}
		if g.spec == "mesh" {
			if legacy := int64(8 * (g.w + g.h)); n.nackBound != legacy {
				t.Errorf("mesh %dx%d: nackBound = %d, legacy bound was %d", g.w, g.h, n.nackBound, legacy)
			}
		}
	}
}

// TestCreditRemainderConservation is the regression test for the per-VC
// credit split: with VCs=3 and ChannelStages=4 the old BufDepth +
// ChannelStages/VCs initialization silently dropped the remainder stage;
// the split must conserve the full per-port storage, and the invariant
// checker must verify it at quiescence.
func TestCreditRemainderConservation(t *testing.T) {
	cfg := testConfig()
	cfg.VCs = 3
	cfg.BufDepth = 2
	cfg.ChannelStages = 4
	cfg.DynamicChannelAlloc = true

	sum := 0
	for v := 0; v < cfg.VCs; v++ {
		sum += vcCredits(&cfg, v)
	}
	if want := cfg.VCs*cfg.BufDepth + cfg.ChannelStages; sum != want {
		t.Fatalf("per-VC credits sum to %d, want %d", sum, want)
	}
	if old := cfg.VCs * (cfg.BufDepth + cfg.ChannelStages/cfg.VCs); sum == old {
		t.Fatalf("credit split still drops the remainder (%d stages lost)", cfg.ChannelStages%cfg.VCs)
	}

	n, err := New(cfg, uniformGen(t, cfg, 0.1, 500), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.RunUntilDrained(2_000_000); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
}

// TestDegenerateMeshesEndToEnd runs 1×N and N×1 meshes through the
// regular pipeline and the invariant checker — the degenerate geometries the mesh-era code never exercised.
func TestDegenerateMeshesEndToEnd(t *testing.T) {
	for _, g := range []struct{ w, h int }{{1, 8}, {8, 1}, {1, 2}, {2, 1}} {
		t.Run(fmt.Sprintf("%dx%d", g.w, g.h), func(t *testing.T) {
			cfg := testConfig()
			cfg.Width, cfg.Height = g.w, g.h
			const packets = 800
			res := mustRun(t, cfg, uniformGen(t, cfg, 0.1, packets), nil)
			if res.PacketsDelivered != packets {
				t.Fatalf("delivered %d/%d packets", res.PacketsDelivered, packets)
			}
		})
	}
}

// TestTopologyInvariantsMidRun audits CheckInvariants every few cycles and
// after drain on every topology family, plain-wire and channel-buffered:
// the mesh-only invariant tests never reach the torus datelines, the
// routerless loops, or the chiplet interposer routers, whose local port
// is a link — so its slab rows must be the link's credits, not the
// ejection sink's sentinel.
func TestTopologyInvariantsMidRun(t *testing.T) {
	for _, g := range topologyGeometries() {
		for _, buffered := range []bool{false, true} {
			name := fmt.Sprintf("%s-%dx%d", g.spec, g.w, g.h)
			if buffered {
				name += "-chan"
			}
			t.Run(name, func(t *testing.T) {
				cfg := topoConfig(g.spec, g.w, g.h)
				if buffered {
					cfg.BufDepth = 2
					cfg.ChannelStages = 8
					cfg.DynamicChannelAlloc = true
					cfg.MFAC = true
				}
				const packets = 600
				n, err := New(cfg, uniformGen(t, cfg, 0.25, packets), nil)
				if err != nil {
					t.Fatal(err)
				}
				busy := false
				for step := 0; !n.Drained(); step++ {
					if n.Cycle() > 1_000_000 {
						t.Fatalf("not drained by cycle %d", n.Cycle())
					}
					n.Step()
					busy = busy || n.bufferedFlits > 0
					if step%5 == 0 {
						if err := n.CheckInvariants(); err != nil {
							t.Fatalf("cycle %d: %v", n.Cycle(), err)
						}
					}
				}
				if !busy {
					t.Fatal("no flit was ever buffered; the mid-run audits covered nothing")
				}
				if err := n.CheckInvariants(); err != nil {
					t.Fatalf("after drain: %v", err)
				}
			})
		}
	}
}
