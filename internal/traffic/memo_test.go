package traffic

import (
	"reflect"
	"sync"
	"testing"
)

// evictAll drops every retained stream, as if the LRU had evicted them.
func (m *streamMemo) evictAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for e := m.lru.Front(); e != nil; e = e.Next() {
		delete(m.entries, e.Value.(*memoEntry).key)
	}
	m.lru.Init()
	m.bytes = 0
}

func (m *streamMemo) retained(key streamKey) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	return ok && e.elem != nil
}

func (m *streamMemo) generationCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.generations
}

// lazyParsec is the generator NewParsec replays, run directly.
func lazyParsec(t *testing.T, name string, width, height, budget int, seed int64) *Parsec {
	t.Helper()
	prof, err := ParsecProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return &Parsec{profile: prof, gen: newParsecGen(prof, width, height, budget, seed)}
}

func mustParsec(t *testing.T, name string, width, height, budget int, seed int64) *Parsec {
	t.Helper()
	g, err := NewParsec(name, width, height, budget, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// samePeeking drives two Peekers cycle by cycle and fails on the first
// difference in NextTime, Exhausted or the packets PopDue releases.
func samePeeking(t *testing.T, label string, a, b Generator) {
	t.Helper()
	pa, pb := NewPeeker(a), NewPeeker(b)
	for cycle := int64(0); ; cycle++ {
		if pa.NextTime() != pb.NextTime() || pa.Exhausted() != pb.Exhausted() {
			t.Fatalf("%s: cycle %d: NextTime %d/%d, Exhausted %v/%v", label, cycle,
				pa.NextTime(), pb.NextTime(), pa.Exhausted(), pb.Exhausted())
		}
		if pa.Exhausted() {
			return
		}
		for {
			x, okA := pa.PopDue(cycle)
			y, okB := pb.PopDue(cycle)
			if okA != okB || x != y {
				t.Fatalf("%s: cycle %d: PopDue %+v,%v vs %+v,%v", label, cycle, x, okA, y, okB)
			}
			if !okA {
				break
			}
		}
	}
}

func TestParsecReplayMatchesGenerator(t *testing.T) {
	const budget = 2000
	for _, prof := range AllParsecProfiles() {
		for _, mesh := range []int{8, 16} {
			for _, seed := range []int64{3, 1 << 40} {
				name := prof.Name
				want := Collect(lazyParsec(t, name, mesh, mesh, budget, seed), 1<<20)
				if len(want) != budget {
					t.Fatalf("%s: lazy generator made %d packets, want %d", name, len(want), budget)
				}
				g := mustParsec(t, name, mesh, mesh, budget, seed)
				if g.gen != nil {
					t.Fatalf("%s %dx%d: not replayed from the memo", name, mesh, mesh)
				}
				if got := Collect(g, 1<<20); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %dx%d seed %d: replay differs from the generator", name, mesh, mesh, seed)
				}
				samePeeking(t, name, mustParsec(t, name, mesh, mesh, budget, seed),
					lazyParsec(t, name, mesh, mesh, budget, seed))

				// A cursor outlives its entry's eviction, and the stream
				// generated again after it is the same.
				held := mustParsec(t, name, mesh, mesh, budget, seed)
				parsecStreams.evictAll()
				if got := Collect(held, 1<<20); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: cursor over an evicted stream differs", name)
				}
				samePeeking(t, name+" regenerated", mustParsec(t, name, mesh, mesh, budget, seed),
					lazyParsec(t, name, mesh, mesh, budget, seed))
			}
		}
	}
}

func TestStreamPackerRoundTripsRangeLimits(t *testing.T) {
	pkts := []Packet{
		{Time: 0, Src: 0, Dst: 0, Flits: 0},
		{Time: 0, Src: 255, Dst: 255, Flits: 255},
		{Time: 254, Src: 1, Dst: 2, Flits: 4},         // largest inline delta
		{Time: 254 + 255, Src: 3, Dst: 4, Flits: 1},   // smallest escaped delta
		{Time: 254 + 255, Src: 255, Dst: 0, Flits: 1}, // same cycle after an escape
		{Time: 254 + 255 + 253, Src: 0, Dst: 255, Flits: 4},
		{Time: 1 << 40, Src: 7, Dst: 8, Flits: 2}, // far gap
		{Time: 1<<40 + 1, Src: 9, Dst: 10, Flits: 3},
	}
	k := newStreamPacker(len(pkts))
	for _, p := range pkts {
		if !k.add(p) {
			t.Fatalf("packer rejected %+v", p)
		}
	}
	s := k.finish()
	if len(s.esc) != 2 || cap(s.esc) != 2 || cap(s.recs) != len(pkts) {
		t.Fatalf("escapes %d (cap %d), records cap %d; want 2, 2, %d", len(s.esc), cap(s.esc), cap(s.recs), len(pkts))
	}
	if want := recordBytes*len(pkts) + 8*2; s.bytes() != want {
		t.Fatalf("bytes %d, want %d", s.bytes(), want)
	}
	got := Collect(&Parsec{replay: streamCursor{s: s}}, 100)
	if !reflect.DeepEqual(got, pkts) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, pkts)
	}

	// A packer sized larger than its stream still finishes exact.
	k = newStreamPacker(10)
	k.add(Packet{Time: 1000, Src: 1, Dst: 2, Flits: 1})
	if s := k.finish(); cap(s.recs) != 1 || cap(s.esc) != 1 {
		t.Fatalf("finish kept capacity %d/%d, want 1/1", cap(s.recs), cap(s.esc))
	}

	for _, bad := range []Packet{
		{Time: -1, Src: 0, Dst: 1, Flits: 1},
		{Time: 5, Src: 256, Dst: 1, Flits: 1},
		{Time: 5, Src: -1, Dst: 1, Flits: 1},
		{Time: 5, Src: 0, Dst: 256, Flits: 1},
		{Time: 5, Src: 0, Dst: -1, Flits: 1},
		{Time: 5, Src: 0, Dst: 1, Flits: 256},
		{Time: 5, Src: 0, Dst: 1, Flits: -1},
	} {
		if newStreamPacker(1).add(bad) {
			t.Errorf("packer accepted %+v", bad)
		}
	}
	k = newStreamPacker(2)
	k.add(Packet{Time: 9, Src: 0, Dst: 1, Flits: 1})
	if k.add(Packet{Time: 8, Src: 0, Dst: 1, Flits: 1}) {
		t.Error("packer accepted a packet out of time order")
	}
}

func TestNewParsecGeneratesOnceUnderConcurrency(t *testing.T) {
	parsecStreams.evictAll()
	before := parsecStreams.generationCount()
	const callers = 8
	streams := make([][]Packet, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			g, err := NewParsec("ferret", 8, 8, 5000, 0x5eed)
			if err != nil {
				t.Error(err)
				return
			}
			streams[i] = Collect(g, 1<<20)
		}()
	}
	close(start)
	wg.Wait()
	if n := parsecStreams.generationCount() - before; n != 1 {
		t.Fatalf("%d generations for one key, want 1", n)
	}
	want := Collect(lazyParsec(t, "ferret", 8, 8, 5000, 0x5eed), 1<<20)
	for i, s := range streams {
		if !reflect.DeepEqual(s, want) {
			t.Fatalf("caller %d replayed a different stream", i)
		}
	}
}

func TestStreamMemoStaysWithinItsBound(t *testing.T) {
	prof, _ := ParsecProfileByName("canneal")
	const budget = 4000 // 16000 packed bytes: four fit in the limit
	m := newStreamMemo(64 << 10)
	key := func(seed int64) streamKey {
		return streamKey{bench: "canneal", width: 8, height: 8, budget: budget, seed: seed}
	}
	for seed := int64(1); seed <= 4; seed++ {
		m.parsec(prof, 8, 8, budget, seed)
	}
	m.parsec(prof, 8, 8, budget, 1) // seed 1 is now the most recent
	for seed := int64(5); seed <= 7; seed++ {
		m.parsec(prof, 8, 8, budget, seed)
		if m.bytes > m.limit {
			t.Fatalf("retained %d bytes, limit %d", m.bytes, m.limit)
		}
	}
	sum := 0
	for e := m.lru.Front(); e != nil; e = e.Next() {
		sum += e.Value.(*memoEntry).stream.bytes()
	}
	if sum != m.bytes || len(m.entries) != m.lru.Len() {
		t.Fatalf("accounting: %d bytes in %d entries, %d in the LRU; counted %d", sum, len(m.entries), m.lru.Len(), m.bytes)
	}
	for seed, want := range map[int64]bool{1: true, 2: false, 3: false, 4: false, 5: true, 6: true, 7: true} {
		if m.retained(key(seed)) != want {
			t.Errorf("seed %d retained = %v, want %v", seed, !want, want)
		}
	}

	// Over the byte limit, or over the record's node range: the lazy
	// generator, and nothing retained.
	gens := m.generations
	if p := m.parsec(prof, 8, 8, m.limit/recordBytes+1, 1); p.gen == nil {
		t.Error("an over-budget stream was memoized")
	}
	if p := m.parsec(prof, 17, 16, budget, 1); p.gen == nil {
		t.Error("a 272-node stream was memoized")
	}
	if m.generations != gens || len(m.entries) != 4 {
		t.Errorf("fallback streams touched the memo: %d generations, %d entries", m.generations-gens, len(m.entries))
	}

	if parsecStreams.limit != streamMemoBytes {
		t.Fatalf("process memo limit %d, want %d", parsecStreams.limit, streamMemoBytes)
	}
	if g := mustParsec(t, "canneal", 8, 8, streamMemoBytes/recordBytes+1, 1); g.gen == nil {
		t.Error("NewParsec memoized a stream over streamMemoBytes")
	}
}

// BenchmarkParsecReplay prices a cursor's Next over a memoized 8×8
// canneal stream; rewinding the cursor in place keeps it at 0 allocs/op.
func BenchmarkParsecReplay(b *testing.B) {
	g, err := NewParsec("canneal", 8, 8, 15000, 1)
	if err != nil {
		b.Fatal(err)
	}
	if g.gen != nil {
		b.Fatal("stream not memoized")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			g.replay = streamCursor{s: g.replay.s}
		}
	}
}
