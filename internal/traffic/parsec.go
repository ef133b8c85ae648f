package traffic

import (
	"fmt"
	"math/rand"
	"sort"
)

// The paper drives its evaluation with PARSEC benchmarks converted to
// packet traces by Netrace. Neither the traces nor the full-system
// simulator are available here, so this file provides the documented
// substitution: a per-benchmark workload *model* that reproduces the
// traffic properties the NoC actually observes from a trace — average
// load, phase structure, burstiness, memory-controller hotspotting,
// nearest-neighbour locality, and the control/data packet-size mix. The
// models are what make fig9/fig10/... benchmarks differ from one another
// the way the paper's bars do.

// ParsecProfile characterizes one benchmark's NoC-visible behaviour.
type ParsecProfile struct {
	Name string
	// BaseRate is the mean injection rate in flits/node/cycle.
	BaseRate float64
	// Burstiness in [0,1): 0 is Poisson-like; higher values modulate
	// injection with on/off phases per node.
	Burstiness float64
	// HotspotFraction of packets go to the memory-controller corners
	// (cache misses / memory traffic).
	HotspotFraction float64
	// NeighborFraction of packets go to a mesh neighbour (pipeline /
	// producer-consumer sharing).
	NeighborFraction float64
	// Phases scales the rate over the run; each entry is a multiplier
	// applied to an equal slice of the packet budget.
	Phases []float64
	// ShortPacketFraction of packets are single-flit control messages;
	// the rest carry the full Table 1 payload (4 flits).
	ShortPacketFraction float64
}

// parsecProfiles holds the eleven workloads used in the paper: ten for
// testing (Figs. 9-16) plus blackscholes for tuning and pre-training.
// Rates and structure follow the published characterizations of PARSEC
// network traffic: canneal and x264 are the heaviest and burstiest,
// swaptions is nearly idle, ferret/fluidanimate have pipeline locality.
var parsecProfiles = []ParsecProfile{
	{Name: "blackscholes", BaseRate: 0.030, Burstiness: 0.2, HotspotFraction: 0.20, NeighborFraction: 0.10, Phases: []float64{1, 1.2, 0.8}, ShortPacketFraction: 0.45},
	{Name: "bodytrack", BaseRate: 0.060, Burstiness: 0.4, HotspotFraction: 0.25, NeighborFraction: 0.15, Phases: []float64{0.6, 1.4, 1.0, 1.2}, ShortPacketFraction: 0.40},
	{Name: "canneal", BaseRate: 0.105, Burstiness: 0.3, HotspotFraction: 0.35, NeighborFraction: 0.05, Phases: []float64{1.2, 1.0, 1.1}, ShortPacketFraction: 0.55},
	{Name: "dedup", BaseRate: 0.080, Burstiness: 0.6, HotspotFraction: 0.25, NeighborFraction: 0.20, Phases: []float64{1.5, 0.5, 1.3, 0.7}, ShortPacketFraction: 0.35},
	{Name: "facesim", BaseRate: 0.050, Burstiness: 0.3, HotspotFraction: 0.20, NeighborFraction: 0.25, Phases: []float64{0.8, 1.2, 1.0}, ShortPacketFraction: 0.40},
	{Name: "ferret", BaseRate: 0.070, Burstiness: 0.5, HotspotFraction: 0.15, NeighborFraction: 0.40, Phases: []float64{1.0, 1.3, 0.7, 1.0}, ShortPacketFraction: 0.35},
	{Name: "freqmine", BaseRate: 0.042, Burstiness: 0.3, HotspotFraction: 0.30, NeighborFraction: 0.10, Phases: []float64{1.1, 0.9}, ShortPacketFraction: 0.45},
	{Name: "fluidanimate", BaseRate: 0.062, Burstiness: 0.4, HotspotFraction: 0.15, NeighborFraction: 0.45, Phases: []float64{1.0, 1.1, 0.9, 1.0}, ShortPacketFraction: 0.30},
	{Name: "swaptions", BaseRate: 0.022, Burstiness: 0.2, HotspotFraction: 0.20, NeighborFraction: 0.10, Phases: []float64{1.0}, ShortPacketFraction: 0.50},
	{Name: "vips", BaseRate: 0.088, Burstiness: 0.5, HotspotFraction: 0.25, NeighborFraction: 0.20, Phases: []float64{0.7, 1.3, 1.2, 0.8}, ShortPacketFraction: 0.40},
	{Name: "x264", BaseRate: 0.115, Burstiness: 0.7, HotspotFraction: 0.20, NeighborFraction: 0.25, Phases: []float64{1.6, 0.6, 1.4, 0.4, 1.0}, ShortPacketFraction: 0.35},
}

// ParsecBenchmarks returns the ten evaluation benchmark names in the
// paper's figure order (bod, can, dedup, fac, fer, fre, flu, swa, vips,
// x264). blackscholes is excluded: the paper reserves it for tuning.
func ParsecBenchmarks() []string {
	out := make([]string, 0, 10)
	for _, p := range parsecProfiles {
		if p.Name != "blackscholes" {
			out = append(out, p.Name)
		}
	}
	return out
}

// ParsecProfileByName looks a profile up by benchmark name.
func ParsecProfileByName(name string) (ParsecProfile, error) {
	for _, p := range parsecProfiles {
		if p.Name == name {
			return p, nil
		}
	}
	return ParsecProfile{}, fmt.Errorf("traffic: unknown PARSEC benchmark %q", name)
}

// Parsec is the workload model for one benchmark: a cursor over the
// process-wide replay of its stream (memo.go), or, for a stream the
// replay memo does not hold, the lazy generator itself.
type Parsec struct {
	profile ParsecProfile
	replay  streamCursor
	gen     *parsecGen // nil when replaying
}

// NewParsec builds the generator for benchmark name on a width×height
// mesh with the given total packet budget. Every call returns its own
// cursor; calls with the same arguments replay one shared, read-only
// stream generated on the first of them.
func NewParsec(name string, width, height, budget int, seed int64) (*Parsec, error) {
	prof, err := ParsecProfileByName(name)
	if err != nil {
		return nil, err
	}
	if width <= 0 || height <= 0 || budget <= 0 {
		return nil, fmt.Errorf("traffic: invalid parsec config")
	}
	return parsecStreams.parsec(prof, width, height, budget, seed), nil
}

// Profile returns the benchmark's model parameters.
func (p *Parsec) Profile() ParsecProfile { return p.profile }

// Next implements Generator.
func (p *Parsec) Next() (Packet, bool) {
	if p.gen != nil {
		return p.gen.next()
	}
	return p.replay.next()
}

// parsecGen generates a benchmark's stream lazily, one trace cycle at a
// time.
type parsecGen struct {
	profile ParsecProfile
	width   int
	nodes   int
	budget  int
	rng     *rand.Rand

	cycle int64
	// queue[head:] holds the packets of the last generated cycle not yet
	// returned. A cycle is generated only once the queue is drained, so
	// the queue empties in place and its capacity is reused.
	queue    []Packet
	head     int
	emitted  int
	onState  []bool
	hotspots []int
}

func newParsecGen(prof ParsecProfile, width, height, budget int, seed int64) *parsecGen {
	nodes := width * height
	return &parsecGen{
		profile:  prof,
		width:    width,
		nodes:    nodes,
		budget:   budget,
		rng:      rand.New(rand.NewSource(seed)),
		onState:  make([]bool, nodes),
		hotspots: []int{0, width - 1, nodes - width, nodes - 1},
	}
}

func (p *parsecGen) next() (Packet, bool) {
	for p.head == len(p.queue) {
		if p.emitted >= p.budget {
			return Packet{}, false
		}
		p.queue, p.head = p.queue[:0], 0
		p.generateCycle()
		p.cycle++
	}
	pkt := p.queue[p.head]
	p.head++
	return pkt, true
}

func (p *parsecGen) generateCycle() {
	rate := p.profile.BaseRate * p.phaseMultiplier()
	// Markov-modulated on/off burst process per node: ON nodes inject
	// at an elevated rate, OFF nodes at a reduced one; the stationary
	// mix preserves the mean rate.
	const pOn = 0.35
	hi := rate * (1 + 2*p.profile.Burstiness)
	lo := (rate - pOn*hi) / (1 - pOn)
	if lo < 0 {
		lo = 0
	}
	for src := 0; src < p.nodes && p.emitted < p.budget; src++ {
		// Burst-state transitions with ~1% switching probability per
		// cycle keep bursts hundreds of cycles long, as traces show.
		if p.onState[src] {
			if p.rng.Float64() < 0.01*(1-pOn) {
				p.onState[src] = false
			}
		} else if p.rng.Float64() < 0.01*pOn {
			p.onState[src] = true
		}
		nodeRate := lo
		if p.onState[src] {
			nodeRate = hi
		}
		flits := 4
		if p.rng.Float64() < p.profile.ShortPacketFraction {
			flits = 1
		}
		if p.rng.Float64() >= nodeRate/float64(flits) {
			continue
		}
		dst := p.destination(src)
		if dst == src {
			continue
		}
		p.queue = append(p.queue, Packet{Time: p.cycle, Src: src, Dst: dst, Flits: flits})
		p.emitted++
	}
}

func (p *parsecGen) phaseMultiplier() float64 {
	phases := p.profile.Phases
	if len(phases) == 0 {
		return 1
	}
	idx := p.emitted * len(phases) / p.budget
	if idx >= len(phases) {
		idx = len(phases) - 1
	}
	return phases[idx]
}

func (p *parsecGen) destination(src int) int {
	r := p.rng.Float64()
	switch {
	case r < p.profile.HotspotFraction:
		return p.hotspots[p.rng.Intn(len(p.hotspots))]
	case r < p.profile.HotspotFraction+p.profile.NeighborFraction:
		x, y := src%p.width, src/p.width
		height := p.nodes / p.width
		switch p.rng.Intn(4) {
		case 0:
			x = (x + 1) % p.width
		case 1:
			x = (x + p.width - 1) % p.width
		case 2:
			y = (y + 1) % height
		default:
			y = (y + height - 1) % height
		}
		return y*p.width + x
	default:
		for {
			d := p.rng.Intn(p.nodes)
			if d != src {
				return d
			}
		}
	}
}

// AllParsecProfiles returns a copy of every profile (including
// blackscholes), sorted by name, for documentation and tests.
func AllParsecProfiles() []ParsecProfile {
	out := append([]ParsecProfile(nil), parsecProfiles...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
