package traffic

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

func syntheticCfg(p Pattern, rate float64) SyntheticConfig {
	return SyntheticConfig{
		Width: 8, Height: 8, Pattern: p, InjectionRate: rate,
		PacketFlits: 4, Packets: 5000, HotspotFraction: 0.3, Seed: 1,
	}
}

func TestSyntheticTimeOrdered(t *testing.T) {
	g, err := NewSynthetic(syntheticCfg(Uniform, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	n := 0
	for {
		p, ok := g.Next()
		if !ok {
			break
		}
		if p.Time < prev {
			t.Fatal("packets out of time order")
		}
		prev = p.Time
		n++
	}
	if n != 5000 {
		t.Fatalf("generated %d packets, want 5000", n)
	}
}

func TestSyntheticRespectsRate(t *testing.T) {
	g, err := NewSynthetic(syntheticCfg(Uniform, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	pkts := Collect(g, 1<<20)
	last := pkts[len(pkts)-1].Time
	flits := 0
	for _, p := range pkts {
		flits += p.Flits
	}
	gotRate := float64(flits) / float64(last+1) / 64
	if math.Abs(gotRate-0.2)/0.2 > 0.1 {
		t.Fatalf("achieved rate %.3f, want ~0.2", gotRate)
	}
}

func TestSyntheticNoSelfTraffic(t *testing.T) {
	for _, pat := range []Pattern{Uniform, Transpose, BitComplement, BitReverse, Shuffle, Tornado, Neighbor, Hotspot} {
		g, err := NewSynthetic(syntheticCfg(pat, 0.3))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range Collect(g, 2000) {
			if p.Src == p.Dst {
				t.Fatalf("%v: self-addressed packet from %d", pat, p.Src)
			}
			if p.Dst < 0 || p.Dst >= 64 {
				t.Fatalf("%v: destination %d out of range", pat, p.Dst)
			}
		}
	}
}

func TestDeterministicPatternsMatchDefinition(t *testing.T) {
	g, err := NewSynthetic(syntheticCfg(Transpose, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Collect(g, 500) {
		x, y := p.Src%8, p.Src/8
		if p.Dst != x*8+y {
			t.Fatalf("transpose(%d,%d) = %d, want %d", x, y, p.Dst, x*8+y)
		}
	}
	g, _ = NewSynthetic(syntheticCfg(Neighbor, 0.3))
	for _, p := range Collect(g, 500) {
		x, y := p.Src%8, p.Src/8
		if p.Dst != (x+1)%8+y*8 {
			t.Fatalf("neighbor(%d) = %d", p.Src, p.Dst)
		}
	}
	g, _ = NewSynthetic(syntheticCfg(BitComplement, 0.3))
	for _, p := range Collect(g, 500) {
		if p.Dst != ^p.Src&63 {
			t.Fatalf("bitcomplement(%d) = %d, want %d", p.Src, p.Dst, ^p.Src&63)
		}
	}
	g, _ = NewSynthetic(syntheticCfg(Tornado, 0.3))
	for _, p := range Collect(g, 500) {
		x, y := p.Src%8, p.Src/8
		if p.Dst != (x+3)%8+y*8 {
			t.Fatalf("tornado(%d) = %d", p.Src, p.Dst)
		}
	}
}

func TestHotspotConcentratesTraffic(t *testing.T) {
	cfg := syntheticCfg(Hotspot, 0.3)
	cfg.HotspotFraction = 0.5
	g, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corners := map[int]bool{0: true, 7: true, 56: true, 63: true}
	hot := 0
	pkts := Collect(g, 5000)
	for _, p := range pkts {
		if corners[p.Dst] {
			hot++
		}
	}
	frac := float64(hot) / float64(len(pkts))
	if frac < 0.4 || frac > 0.65 {
		t.Fatalf("hotspot fraction %.2f, want ~0.5", frac)
	}
}

func TestSyntheticConfigValidation(t *testing.T) {
	bad := []SyntheticConfig{
		{Width: 0, Height: 8, InjectionRate: 0.1, PacketFlits: 4, Packets: 10},
		{Width: 8, Height: 8, InjectionRate: -1, PacketFlits: 4, Packets: 10},
		{Width: 8, Height: 8, InjectionRate: 0.1, PacketFlits: 0, Packets: 10},
		{Width: 8, Height: 8, InjectionRate: 0.1, PacketFlits: 4, Packets: 0},
	}
	for i, cfg := range bad {
		if _, err := NewSynthetic(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestSyntheticDeterministicBySeed(t *testing.T) {
	a, _ := NewSynthetic(syntheticCfg(Uniform, 0.1))
	b, _ := NewSynthetic(syntheticCfg(Uniform, 0.1))
	pa, pb := Collect(a, 1000), Collect(b, 1000)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed must reproduce the stream")
		}
	}
}

// TestSyntheticStreamPinned pins the first 50,000 packets of the 32×32
// open-loop uniform stream the uniform32x32 benchmark workload replays
// (seed 1 + 97, 1.6/32 flits/node/cycle) to an FNV-1a hash of their
// fields, so a change to how Next queues or pops a cycle's packets cannot
// reorder or alter the stream.
func TestSyntheticStreamPinned(t *testing.T) {
	g, err := NewSynthetic(SyntheticConfig{
		Width: 32, Height: 32, Pattern: Uniform,
		InjectionRate: 1.6 / 32, PacketFlits: 4, Packets: 1 << 30, Seed: 98,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var rec [32]byte
	for i := 0; i < 50_000; i++ {
		p, ok := g.Next()
		if !ok {
			t.Fatalf("stream ended after %d packets", i)
		}
		binary.LittleEndian.PutUint64(rec[0:], uint64(p.Time))
		binary.LittleEndian.PutUint64(rec[8:], uint64(p.Src))
		binary.LittleEndian.PutUint64(rec[16:], uint64(p.Dst))
		binary.LittleEndian.PutUint64(rec[24:], uint64(p.Flits))
		h.Write(rec[:])
	}
	const want uint64 = 0xe8576574da0f90bb
	if got := h.Sum64(); got != want {
		t.Fatalf("stream hash %#x, want %#x", got, want)
	}
}

func TestParsecProfilesComplete(t *testing.T) {
	names := ParsecBenchmarks()
	if len(names) != 10 {
		t.Fatalf("want 10 evaluation benchmarks, got %d", len(names))
	}
	for _, n := range names {
		if n == "blackscholes" {
			t.Fatal("blackscholes is the tuning workload, not an evaluation one")
		}
	}
	if _, err := ParsecProfileByName("blackscholes"); err != nil {
		t.Fatal("blackscholes profile must exist for pre-training")
	}
	if _, err := ParsecProfileByName("doom"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if len(AllParsecProfiles()) != 11 {
		t.Fatal("want 11 total profiles")
	}
}

func TestParsecGeneratesBudgetedTimeOrderedStream(t *testing.T) {
	g, err := NewParsec("canneal", 8, 8, 3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	n := 0
	for {
		p, ok := g.Next()
		if !ok {
			break
		}
		if p.Time < prev {
			t.Fatal("out of order")
		}
		if p.Src == p.Dst || p.Dst < 0 || p.Dst >= 64 {
			t.Fatalf("bad packet %+v", p)
		}
		if p.Flits != 1 && p.Flits != 4 {
			t.Fatalf("unexpected packet size %d", p.Flits)
		}
		prev = p.Time
		n++
	}
	if n != 3000 {
		t.Fatalf("generated %d packets, want 3000", n)
	}
}

func TestParsecLoadOrdering(t *testing.T) {
	// canneal (heavy) must finish its budget in fewer cycles than
	// swaptions (light): the distinguishing property of the models.
	drain := func(name string) int64 {
		g, err := NewParsec(name, 8, 8, 2000, 3)
		if err != nil {
			t.Fatal(err)
		}
		pkts := Collect(g, 1<<20)
		return pkts[len(pkts)-1].Time
	}
	heavy, light := drain("canneal"), drain("swaptions")
	if heavy*2 >= light {
		t.Fatalf("canneal (%d cycles) should be much denser than swaptions (%d)", heavy, light)
	}
}

func TestParsecMeanRateApproximatesProfile(t *testing.T) {
	for _, name := range []string{"canneal", "swaptions", "ferret"} {
		g, err := NewParsec(name, 8, 8, 8000, 11)
		if err != nil {
			t.Fatal(err)
		}
		prof := g.Profile()
		pkts := Collect(g, 1<<20)
		flits := 0
		for _, p := range pkts {
			flits += p.Flits
		}
		cycles := pkts[len(pkts)-1].Time + 1
		got := float64(flits) / float64(cycles) / 64
		if got < prof.BaseRate*0.5 || got > prof.BaseRate*1.6 {
			t.Errorf("%s: measured rate %.4f vs profile %.4f", name, got, prof.BaseRate)
		}
	}
}

func TestPeekerDrainsByCycle(t *testing.T) {
	pkts := []Packet{
		{Time: 0, Src: 0, Dst: 1, Flits: 1},
		{Time: 0, Src: 2, Dst: 3, Flits: 1},
		{Time: 5, Src: 1, Dst: 2, Flits: 1},
	}
	p := NewPeeker(NewSliceGenerator(pkts))
	if p.NextTime() != 0 {
		t.Fatal("NextTime should be 0")
	}
	var got []Packet
	for {
		pk, ok := p.PopDue(0)
		if !ok {
			break
		}
		got = append(got, pk)
	}
	if len(got) != 2 {
		t.Fatalf("cycle 0 should yield 2 packets, got %d", len(got))
	}
	if _, ok := p.PopDue(4); ok {
		t.Fatal("nothing due at cycle 4")
	}
	if pk, ok := p.PopDue(5); !ok || pk.Src != 1 {
		t.Fatal("cycle 5 packet missing")
	}
	if !p.Exhausted() || p.NextTime() != -1 {
		t.Fatal("stream should be exhausted")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	g, _ := NewSynthetic(syntheticCfg(Uniform, 0.15))
	want := Collect(g, 1<<20)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, 64, want); err != nil {
		t.Fatal(err)
	}
	nodes, got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nodes != 64 || len(got) != len(want) {
		t.Fatalf("round trip lost data: %d nodes, %d packets", nodes, len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packet %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestTraceRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, 4, []Packet{{Time: 0, Src: 0, Dst: 1, Flits: 1}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] ^= 0xFF // corrupt magic
	if _, _, err := ReadTrace(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt magic must be rejected")
	}
	// Truncated stream.
	buf.Reset()
	_ = WriteTrace(&buf, 4, []Packet{{Time: 0, Src: 0, Dst: 1, Flits: 1}})
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated trace must be rejected")
	}
}

func TestWriteTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, 4, []Packet{{Time: 5, Src: 0, Dst: 1, Flits: 1}, {Time: 3, Src: 0, Dst: 1, Flits: 1}}); err == nil {
		t.Fatal("out-of-order packets must be rejected")
	}
	if err := WriteTrace(&buf, 4, []Packet{{Time: 0, Src: 9, Dst: 1, Flits: 1}}); err == nil {
		t.Fatal("out-of-range src must be rejected")
	}
	if err := WriteTrace(&buf, 4, []Packet{{Time: 0, Src: 0, Dst: 1, Flits: 0}}); err == nil {
		t.Fatal("zero-flit packet must be rejected")
	}
}

// A corrupt 16-byte header may claim up to 2^32 records; ReadTrace must not
// pre-allocate count×24 bytes (~96 GiB) on that header's say-so before the
// body proves the records exist.
func TestReadTraceBoundsPreallocFromHeader(t *testing.T) {
	var buf bytes.Buffer
	hdr := []any{uint32(traceMagic), uint32(4), uint64(1) << 32}
	for _, v := range hdr {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	// Empty body: the claimed 2^32 records aren't there. Before the
	// capacity cap this line attempted the full pre-allocation and took
	// the process down; now it must fail cleanly at record 0.
	_, _, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("header claiming 2^32 records over an empty body must be rejected")
	}
}

// Crossing the pre-allocation cap must still read every record: capacity is
// a hint, append provides the growth.
func TestReadTraceGrowsPastPreallocCap(t *testing.T) {
	n := maxTracePrealloc + 137
	packets := make([]Packet, n)
	for i := range packets {
		packets[i] = Packet{Time: int64(i), Src: 0, Dst: 1, Flits: 1}
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, 2, packets); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("read %d packets, want %d", len(got), n)
	}
	if got[n-1] != packets[n-1] {
		t.Fatalf("last packet mismatch: %+v vs %+v", got[n-1], packets[n-1])
	}
}

// WriteTrace used to push nodes through uint32(nodes) unchecked: negative
// and >2^32-1 counts wrapped silently, and nodes==0 round-tripped into a
// file ReadTrace itself rejects. Write must refuse everything Read would.
func TestWriteTraceRejectsNodeCountsReadWouldRefuse(t *testing.T) {
	pkts := []Packet{}
	for _, nodes := range []int{0, -1, -64, maxTraceNodes + 1, int(int64(1) << 32)} {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, nodes, pkts); err == nil {
			t.Errorf("WriteTrace accepted nodes=%d, which ReadTrace would reject", nodes)
		}
	}
	// The boundary value itself must survive a round trip.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, maxTraceNodes, pkts); err != nil {
		t.Fatal(err)
	}
	nodes, _, err := ReadTrace(&buf)
	if err != nil || nodes != maxTraceNodes {
		t.Fatalf("round trip at nodes=%d failed: nodes=%d err=%v", maxTraceNodes, nodes, err)
	}
}
