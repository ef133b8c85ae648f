package noc

import (
	"fmt"
	"strconv"
	"strings"
)

// Topology abstracts how routers are wired and how flits find their way,
// so the simulator core (pipeline, credits, power, faults, sharding) is
// geometry-agnostic. Implementations must be pure: Route may depend only
// on its arguments, never on simulation state — that is what lets the
// sharded stepper run RC in parallel and keeps fingerprints bit-identical
// at any shard count.
//
// Router ids are dense: cores (NIC-bearing traffic endpoints) occupy
// 0..Cores()-1 in row-major (x + y*Width) order — the layout the traffic
// generators, thermal grid, and heatmaps assume — and any auxiliary
// routers (e.g. chiplet interposer nodes) follow in Cores()..Nodes()-1.
type Topology interface {
	// Name is the canonical spec string ("mesh", "torus", ...).
	Name() string
	// Nodes is the total router count, auxiliary routers included.
	Nodes() int
	// Cores is the number of NIC-bearing routers; traffic sources and
	// destinations are always < Cores.
	Cores() int
	// Link resolves output port p of router id to the neighbouring
	// router and its input port, or (-1, -1) when the port is unwired.
	// Links are reciprocal: Link(id, p) = (nb, q) implies
	// Link(nb, q) = (id, p).
	Link(id, p int) (nb, nbPort int)
	// Route returns the output port the packet (src -> dst) takes at
	// router id, plus the dateline VC class its next hop must be
	// allocated in (-1 = unrestricted). Routing is deterministic and
	// deadlock-free; dst == id yields the local port.
	Route(id, src, dst int) (port, vcClass int)
	// VCClasses is the number of dateline classes Route can emit
	// (1 = unrestricted). Configs need VCs >= VCClasses.
	VCClasses() int
	// Diameter bounds the hop count of the longest minimal route —
	// the liveness horizon for end-to-end retransmission NACKs.
	Diameter() int
	// Coords maps a router id to die coordinates for summaries and
	// heatmaps. Auxiliary routers report the coordinates of the core
	// tile they sit over.
	Coords(id int) (x, y int)
}

// Topology spec strings accepted by Config.Topology.
const (
	TopologyMesh       = "mesh"
	TopologyTorus      = "torus"
	TopologyChiplet    = "chiplet"
	TopologyRouterless = "routerless"
)

// NewTopology builds the topology a config selects (empty = mesh),
// validating the geometry against it.
func NewTopology(cfg *Config) (Topology, error) {
	kind, cw, ch, err := parseTopologySpec(cfg.Topology)
	if err != nil {
		return nil, err
	}
	w, h := cfg.Width, cfg.Height
	switch kind {
	case TopologyMesh:
		return meshTopology{w: w, h: h}, nil
	case TopologyTorus:
		if w < 2 || h < 2 {
			return nil, fmt.Errorf("noc: torus needs width and height >= 2, got %dx%d", w, h)
		}
		return torusTopology{w: w, h: h}, nil
	case TopologyChiplet:
		if w%cw != 0 || h%ch != 0 {
			return nil, fmt.Errorf("noc: chiplet tile %dx%d does not divide mesh %dx%d", cw, ch, w, h)
		}
		return chipletTopology{w: w, h: h, cw: cw, ch: ch, cx: w / cw, cy: h / ch}, nil
	case TopologyRouterless:
		return routerlessTopology{w: w, h: h}, nil
	default:
		return nil, fmt.Errorf("noc: unknown topology %q", cfg.Topology)
	}
}

// ValidateTopologySpec checks a topology spec string syntactically
// (family name and tile-size syntax), without a mesh geometry to wire it
// against. Design-space tooling uses it to reject impossible lattices up
// front.
func ValidateTopologySpec(s string) error {
	_, _, _, err := parseTopologySpec(s)
	return err
}

// parseTopologySpec splits a spec string into its family and, for
// chiplets, the tile dimensions.
func parseTopologySpec(s string) (kind string, cw, ch int, err error) {
	switch s {
	case "", TopologyMesh:
		return TopologyMesh, 0, 0, nil
	case TopologyTorus:
		return TopologyTorus, 0, 0, nil
	case TopologyRouterless:
		return TopologyRouterless, 0, 0, nil
	case TopologyChiplet:
		return TopologyChiplet, 2, 2, nil
	}
	if rest, ok := strings.CutPrefix(s, TopologyChiplet+":"); ok {
		a, b, ok := strings.Cut(rest, "x")
		if ok {
			cw, err1 := strconv.Atoi(a)
			ch, err2 := strconv.Atoi(b)
			if err1 == nil && err2 == nil && cw >= 1 && ch >= 1 {
				return TopologyChiplet, cw, ch, nil
			}
		}
		return "", 0, 0, fmt.Errorf("noc: bad chiplet tile size %q (want \"chiplet:WxH\")", s)
	}
	return "", 0, 0, fmt.Errorf("noc: unknown topology %q (mesh, torus, chiplet[:WxH], routerless)", s)
}

// --- 2D mesh ----------------------------------------------------------

// meshTopology is the classic 2D mesh with X-Y dimension-order routing —
// the digest-neutral default, reproducing the pre-seam simulator
// bit-exactly.
type meshTopology struct{ w, h int }

func (t meshTopology) Name() string             { return TopologyMesh }
func (t meshTopology) Nodes() int               { return t.w * t.h }
func (t meshTopology) Cores() int               { return t.w * t.h }
func (t meshTopology) VCClasses() int           { return 1 }
func (t meshTopology) Diameter() int            { return t.w + t.h - 2 }
func (t meshTopology) Coords(id int) (x, y int) { return id % t.w, id / t.w }

func (t meshTopology) Link(id, p int) (int, int) {
	x, y := id%t.w, id/t.w
	switch p {
	case PortEast:
		if x+1 < t.w {
			return id + 1, PortWest
		}
	case PortWest:
		if x > 0 {
			return id - 1, PortEast
		}
	case PortNorth:
		if y > 0 {
			return id - t.w, PortSouth
		}
	case PortSouth:
		if y+1 < t.h {
			return id + t.w, PortNorth
		}
	}
	return -1, -1
}

// Route is X-Y dimension-order routing: correct X first, then Y.
func (t meshTopology) Route(id, src, dst int) (int, int) {
	x, y := id%t.w, id/t.w
	dx, dy := dst%t.w, dst/t.w
	switch {
	case dx > x:
		return PortEast, -1
	case dx < x:
		return PortWest, -1
	case dy < y:
		return PortNorth, -1
	case dy > y:
		return PortSouth, -1
	default:
		return PortLocal, -1
	}
}

// --- Dual-network torus -----------------------------------------------

// torusTopology is a 2D torus with wraparound links, split into two
// direction-disjoint networks as in real silicon (Tenstorrent Blackhole
// NoC0/NoC1): network 0 moves only east/south, network 1 only west/north,
// each packet assigned to one network at injection by a pure function of
// (src, dst). The two networks share no ports, so they cannot deadlock
// against each other; within a network each unidirectional ring is broken
// by a dateline — the VC class switches from 0 to 1 when a packet's path
// has crossed the wraparound edge of the dimension it is traversing — so
// two VC classes make the whole fabric deadlock-free.
type torusTopology struct{ w, h int }

func (t torusTopology) Name() string             { return TopologyTorus }
func (t torusTopology) Nodes() int               { return t.w * t.h }
func (t torusTopology) Cores() int               { return t.w * t.h }
func (t torusTopology) VCClasses() int           { return 2 }
func (t torusTopology) Diameter() int            { return t.w + t.h - 2 }
func (t torusTopology) Coords(id int) (x, y int) { return id % t.w, id / t.w }

func (t torusTopology) Link(id, p int) (int, int) {
	x, y := id%t.w, id/t.w
	switch p {
	case PortEast:
		return y*t.w + (x+1)%t.w, PortWest
	case PortWest:
		return y*t.w + (x-1+t.w)%t.w, PortEast
	case PortNorth:
		return ((y-1+t.h)%t.h)*t.w + x, PortSouth
	case PortSouth:
		return ((y+1)%t.h)*t.w + x, PortNorth
	}
	return -1, -1
}

// network assigns a packet to NoC0 (east/south) or NoC1 (west/north).
func (t torusTopology) network(src, dst int) int { return (src + dst) % 2 }

func (t torusTopology) Route(id, src, dst int) (int, int) {
	if id == dst {
		return PortLocal, -1
	}
	x, y := id%t.w, id/t.w
	sx, sy := src%t.w, src/t.w
	dx, dy := dst%t.w, dst/t.w
	if t.network(src, dst) == 0 {
		// NoC0: X then Y, moving only east and south.
		if x != dx {
			nx := (x + 1) % t.w
			return PortEast, datelineClass(sx > dx, nx <= dx && sx > dx)
		}
		ny := (y + 1) % t.h
		return PortSouth, datelineClass(sy > dy, ny <= dy && sy > dy)
	}
	// NoC1: X then Y, moving only west and north.
	if x != dx {
		nx := (x - 1 + t.w) % t.w
		return PortWest, datelineClass(sx < dx, nx >= dx && sx < dx)
	}
	ny := (y - 1 + t.h) % t.h
	return PortNorth, datelineClass(sy < dy, ny >= dy && sy < dy)
}

// datelineClass maps "does this ring ride wrap at all" and "has the next
// hop already wrapped" to the VC class of the next channel.
func datelineClass(wraps, crossed bool) int {
	if wraps && crossed {
		return 1
	}
	return 0
}

// --- Hierarchical chiplet mesh ----------------------------------------

// chipletTopology partitions the Width x Height cores into cw x ch
// chiplets with no direct inter-chiplet core links. Each chiplet's
// top-left core is its entry node, wired through its (otherwise unused)
// north port to a network-on-interposer router; the interposer routers
// form a cx x cy mesh of their own, appended after the core ids. An
// inter-chiplet packet climbs to its interposer, crosses the interposer
// mesh in X-Y order, and descends into the destination chiplet — each
// packet goes up at most once and down at most once, and every mesh
// segment is dimension-ordered, so the channel dependency graph is
// acyclic without any VC classes.
type chipletTopology struct {
	w, h   int // core mesh
	cw, ch int // cores per chiplet
	cx, cy int // chiplet grid
}

func (t chipletTopology) Name() string {
	return fmt.Sprintf("%s:%dx%d", TopologyChiplet, t.cw, t.ch)
}
func (t chipletTopology) Nodes() int     { return t.w*t.h + t.cx*t.cy }
func (t chipletTopology) Cores() int     { return t.w * t.h }
func (t chipletTopology) VCClasses() int { return 1 }
func (t chipletTopology) Diameter() int {
	return 2*(t.cw-1) + 2*(t.ch-1) + (t.cx - 1) + (t.cy - 1) + 2
}

// chipletOf maps a core id to its chiplet index in the interposer grid.
func (t chipletTopology) chipletOf(core int) int {
	x, y := core%t.w, core/t.w
	return (y/t.ch)*t.cx + x/t.cw
}

// entryOf returns the entry core (chiplet-local top-left) of chiplet c.
func (t chipletTopology) entryOf(c int) int {
	ex, ey := (c%t.cx)*t.cw, (c/t.cx)*t.ch
	return ey*t.w + ex
}

func (t chipletTopology) Coords(id int) (x, y int) {
	if id < t.Cores() {
		return id % t.w, id / t.w
	}
	return t.entryOf(id-t.Cores()) % t.w, (id - t.Cores()) / t.cx * t.ch
}

func (t chipletTopology) Link(id, p int) (int, int) {
	if id < t.Cores() {
		x, y := id%t.w, id/t.w
		switch p {
		case PortEast:
			if x+1 < t.w && (x+1)/t.cw == x/t.cw {
				return id + 1, PortWest
			}
		case PortWest:
			if x > 0 && (x-1)/t.cw == x/t.cw {
				return id - 1, PortEast
			}
		case PortNorth:
			if x%t.cw == 0 && y%t.ch == 0 {
				// Entry core: the vertical link up to the interposer.
				return t.Cores() + t.chipletOf(id), PortLocal
			}
			if y > 0 && (y-1)/t.ch == y/t.ch {
				return id - t.w, PortSouth
			}
		case PortSouth:
			if y+1 < t.h && (y+1)/t.ch == y/t.ch {
				return id + t.w, PortNorth
			}
		}
		return -1, -1
	}
	// Interposer router: a cx x cy mesh on the cardinal ports, plus the
	// local port wired down to the chiplet's entry core.
	c := id - t.Cores()
	x, y := c%t.cx, c/t.cx
	switch p {
	case PortLocal:
		return t.entryOf(c), PortNorth
	case PortEast:
		if x+1 < t.cx {
			return id + 1, PortWest
		}
	case PortWest:
		if x > 0 {
			return id - 1, PortEast
		}
	case PortNorth:
		if y > 0 {
			return id - t.cx, PortSouth
		}
	case PortSouth:
		if y+1 < t.cy {
			return id + t.cx, PortNorth
		}
	}
	return -1, -1
}

func (t chipletTopology) Route(id, src, dst int) (int, int) {
	if id >= t.Cores() {
		// Interposer mesh: X-Y toward the destination chiplet, then
		// down the local-port link.
		c, dc := id-t.Cores(), t.chipletOf(dst)
		if c == dc {
			return PortLocal, -1
		}
		x, y := c%t.cx, c/t.cx
		dx, dy := dc%t.cx, dc/t.cx
		switch {
		case dx > x:
			return PortEast, -1
		case dx < x:
			return PortWest, -1
		case dy < y:
			return PortNorth, -1
		default:
			return PortSouth, -1
		}
	}
	if id == dst {
		return PortLocal, -1
	}
	x, y := id%t.w, id/t.w
	if t.chipletOf(id) == t.chipletOf(dst) {
		// Intra-chiplet X-Y (stays inside the chiplet by construction).
		dx, dy := dst%t.w, dst/t.w
		switch {
		case dx > x:
			return PortEast, -1
		case dx < x:
			return PortWest, -1
		case dy < y:
			return PortNorth, -1
		default:
			return PortSouth, -1
		}
	}
	// Inter-chiplet: X-Y to the entry core, then up. At the entry core
	// itself north is the interposer link.
	if ex := (x / t.cw) * t.cw; x > ex {
		return PortWest, -1
	}
	return PortNorth, -1
}

// --- Routerless loop NoC ----------------------------------------------

// routerlessTopology implements a routerless loop NoC in the spirit of
// "Optimizing Routerless Network-on-Chip Designs": packets ride fixed
// directed loops end to end, with no turns and no per-hop allocation
// decisions beyond following the loop. The loop set is one clockwise
// rectangle per row pair (r1 < r2) spanning the full width — every
// (src, dst) pair shares its canonical loop (same-row pairs use the
// adjacent-row rectangle). Physical links are the plain mesh links;
// loops multiplex onto them.
//
// Deadlock freedom: order all directed channels globally by (leg, row,
// position-along-leg) with legs ordered east < south < west < north.
// Every clockwise rectangle traverses its channels in strictly ascending
// global order except for the single descent at its top-left corner (its
// dateline), where the VC class switches 0 -> 1. Within a class the
// wait-for graph therefore only follows ascending channels — acyclic
// even where loops share links — and class transitions are one-way, so
// two VC classes suffice.
//
// Degenerate 1xN / Nx1 fabrics have no rectangles; they fall back to two
// unidirectional lines (east+west, or south+north), which are trivially
// acyclic and need no classes.
type routerlessTopology struct{ w, h int }

func (t routerlessTopology) Name() string             { return TopologyRouterless }
func (t routerlessTopology) Nodes() int               { return t.w * t.h }
func (t routerlessTopology) Cores() int               { return t.w * t.h }
func (t routerlessTopology) Coords(id int) (x, y int) { return id % t.w, id / t.w }

func (t routerlessTopology) VCClasses() int {
	if t.w < 2 || t.h < 2 {
		return 1
	}
	return 2
}

func (t routerlessTopology) Diameter() int {
	if t.w < 2 || t.h < 2 {
		return t.w + t.h - 2
	}
	// Longest ride: all the way around the tallest rectangle minus one.
	return 2*(t.w-1) + 2*(t.h-1) - 1
}

func (t routerlessTopology) Link(id, p int) (int, int) {
	return meshTopology{w: t.w, h: t.h}.Link(id, p)
}

// loopOf picks the canonical loop (top row, bottom row) for a pair.
func (t routerlessTopology) loopOf(src, dst int) (r1, r2 int) {
	sy, dy := src/t.w, dst/t.w
	if sy != dy {
		if sy < dy {
			return sy, dy
		}
		return dy, sy
	}
	if sy+1 < t.h {
		return sy, sy + 1
	}
	return sy - 1, sy
}

// loopPos maps a node on loop (r1, r2) to its clockwise perimeter
// position, with the dateline corner (0, r1) at position 0.
func (t routerlessTopology) loopPos(id, r1, r2 int) int {
	x, y := id%t.w, id/t.w
	switch {
	case y == r1:
		return x
	case x == t.w-1:
		return (t.w - 1) + (y - r1)
	case y == r2:
		return (t.w - 1) + (r2 - r1) + (t.w - 1 - x)
	default: // x == 0
		return 2*(t.w-1) + (r2 - r1) + (r2 - y)
	}
}

func (t routerlessTopology) Route(id, src, dst int) (int, int) {
	if id == dst {
		return PortLocal, -1
	}
	x, y := id%t.w, id/t.w
	dx, dy := dst%t.w, dst/t.w
	if t.h == 1 {
		// Two unidirectional lines: eastbound and westbound.
		if dx > x {
			return PortEast, -1
		}
		return PortWest, -1
	}
	if t.w == 1 {
		if dy > y {
			return PortSouth, -1
		}
		return PortNorth, -1
	}
	r1, r2 := t.loopOf(src, dst)
	var port int
	switch {
	case y == r1 && x < t.w-1:
		port = PortEast
	case x == t.w-1 && y < r2:
		port = PortSouth
	case y == r2 && x > 0:
		port = PortWest
	default:
		port = PortNorth
	}
	ps, pd := t.loopPos(src, r1, r2), t.loopPos(dst, r1, r2)
	perim := 2*(t.w-1) + 2*(r2-r1)
	pn := (t.loopPos(id, r1, r2) + 1) % perim
	if pd < ps && pn >= 1 && pn <= pd {
		return port, 1 // the ride has wrapped past the dateline corner
	}
	return port, 0
}
