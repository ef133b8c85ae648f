package traffic

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Pattern is a classic synthetic destination function on a k×k mesh.
type Pattern int

const (
	// Uniform sends each packet to a uniformly random other node.
	Uniform Pattern = iota
	// Transpose sends (x,y) → (y,x).
	Transpose
	// BitComplement sends node i → ^i within the address width.
	BitComplement
	// BitReverse sends node i → bit-reversed(i).
	BitReverse
	// Shuffle rotates the node address left by one bit.
	Shuffle
	// Tornado sends each node halfway minus one around its row.
	Tornado
	// Neighbor sends to the +X neighbour (wrapping).
	Neighbor
	// Hotspot sends a configurable fraction of traffic to the corner
	// nodes (standing in for memory controllers) and the rest
	// uniformly.
	Hotspot
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Transpose:
		return "transpose"
	case BitComplement:
		return "bitcomplement"
	case BitReverse:
		return "bitreverse"
	case Shuffle:
		return "shuffle"
	case Tornado:
		return "tornado"
	case Neighbor:
		return "neighbor"
	case Hotspot:
		return "hotspot"
	}
	return "unknown"
}

// Patterns lists every synthetic pattern in declaration order.
func Patterns() []Pattern {
	return []Pattern{Uniform, Transpose, BitComplement, BitReverse, Shuffle, Tornado, Neighbor, Hotspot}
}

// ParsePattern resolves a name (as printed by String) to a Pattern.
func ParsePattern(s string) (Pattern, error) {
	for _, p := range Patterns() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("traffic: unknown pattern %q", s)
}

// SyntheticConfig parameterizes a synthetic workload.
type SyntheticConfig struct {
	Width, Height int
	Pattern       Pattern
	// InjectionRate is in flits/node/cycle.
	InjectionRate float64
	// PacketFlits is the flits per packet (Table 1: 4 × 128-bit flits).
	PacketFlits int
	// Packets bounds the workload size (the stream ends after this
	// many packets).
	Packets int
	// HotspotFraction applies to Pattern == Hotspot.
	HotspotFraction float64
	Seed            int64
}

// Synthetic generates Bernoulli-injected packets under a destination
// pattern, the standard open-loop methodology of Booksim-style simulators.
type Synthetic struct {
	cfg      SyntheticConfig
	nodes    int
	addrBits int
	rng      *rand.Rand
	cycle    int64
	// queue[head:] holds the packets of the last generated cycle not yet
	// returned; a cycle is generated only once it is drained, so the
	// queue empties in place and its capacity is reused.
	queue    []Packet
	head     int
	emitted  int
	hotspots []int
}

// NewSynthetic validates the configuration and returns a generator.
func NewSynthetic(cfg SyntheticConfig) (*Synthetic, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("traffic: invalid mesh %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.InjectionRate < 0 || cfg.InjectionRate > 1 {
		return nil, fmt.Errorf("traffic: injection rate %g out of [0,1]", cfg.InjectionRate)
	}
	if cfg.PacketFlits <= 0 {
		return nil, fmt.Errorf("traffic: packet must have at least one flit")
	}
	if cfg.Packets <= 0 {
		return nil, fmt.Errorf("traffic: packet budget must be positive")
	}
	nodes := cfg.Width * cfg.Height
	if nodes < 2 {
		return nil, fmt.Errorf("traffic: mesh %dx%d has no destination to send to", cfg.Width, cfg.Height)
	}
	s := &Synthetic{
		cfg:      cfg,
		nodes:    nodes,
		addrBits: bits.Len(uint(nodes - 1)),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		hotspots: []int{0, cfg.Width - 1, nodes - cfg.Width, nodes - 1},
	}
	// A deterministic pattern that maps every node onto itself (e.g.
	// Tornado on a width-2 mesh) can never emit a packet: Next skips
	// self-addressed trials without consuming the budget and would spin
	// forever. Uniform and Hotspot redraw through the PRNG and always
	// make progress on a 2+-node mesh; the deterministic patterns are
	// probed without touching the PRNG.
	switch cfg.Pattern {
	case Uniform, Hotspot:
	default:
		progress := false
		for src := 0; src < nodes; src++ {
			if s.destination(src) != src {
				progress = true
				break
			}
		}
		if !progress {
			return nil, fmt.Errorf("traffic: pattern %v maps every node of a %dx%d mesh onto itself",
				cfg.Pattern, cfg.Width, cfg.Height)
		}
	}
	return s, nil
}

// Next implements Generator.
func (s *Synthetic) Next() (Packet, bool) {
	for {
		if s.head < len(s.queue) {
			p := s.queue[s.head]
			s.head++
			return p, true
		}
		if s.emitted >= s.cfg.Packets {
			return Packet{}, false
		}
		s.queue, s.head = s.queue[:0], 0
		// Bernoulli trial per node for the current cycle. The rate is
		// flits/node/cycle, so the per-cycle packet probability is
		// rate / flitsPerPacket.
		prob := s.cfg.InjectionRate / float64(s.cfg.PacketFlits)
		for src := 0; src < s.nodes && s.emitted < s.cfg.Packets; src++ {
			if s.rng.Float64() >= prob {
				continue
			}
			dst := s.destination(src)
			if dst == src {
				continue
			}
			s.queue = append(s.queue, Packet{
				Time:  s.cycle,
				Src:   src,
				Dst:   dst,
				Flits: s.cfg.PacketFlits,
			})
			s.emitted++
		}
		s.cycle++
	}
}

func (s *Synthetic) destination(src int) int {
	w, h := s.cfg.Width, s.cfg.Height
	x, y := src%w, src/w
	switch s.cfg.Pattern {
	case Uniform:
		for {
			d := s.rng.Intn(s.nodes)
			if d != src {
				return d
			}
		}
	case Transpose:
		// Requires a square mesh; swap coordinates.
		return x*w + y%w
	case BitComplement:
		return ^src & (1<<s.addrBits - 1) % s.nodes
	case BitReverse:
		r := 0
		for i := 0; i < s.addrBits; i++ {
			r = r<<1 | src>>i&1
		}
		return r % s.nodes
	case Shuffle:
		return (src<<1 | src>>(s.addrBits-1)&1) & (1<<s.addrBits - 1) % s.nodes
	case Tornado:
		return (x+(w+1)/2-1)%w + y*w
	case Neighbor:
		return (x+1)%w + y*w
	case Hotspot:
		if s.rng.Float64() < s.cfg.HotspotFraction {
			return s.hotspots[s.rng.Intn(len(s.hotspots))]
		}
		for {
			d := s.rng.Intn(s.nodes)
			if d != src {
				return d
			}
		}
	}
	_ = h
	return (src + 1) % s.nodes
}
