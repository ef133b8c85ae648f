package traffic

import (
	"container/list"
	"sync"
)

// Workload streams are generated once per process. A comparison matrix
// (and the harness, and the daemon) runs the same PARSEC stream under
// every technique, so NewParsec looks the stream up in parsecStreams:
// the first call for a (benchmark, mesh, budget, seed) key generates and
// packs it, and every call returns its own cursor over that shared,
// read-only packing. The replay is the generated sequence, so it is
// bit-exact by construction.

// streamMemoBytes bounds the packed bytes parsecStreams retains; the
// least recently used streams are evicted past it. It holds 262,144
// packets: the quick suite's 16 streams take 840,000 bytes of it. A
// retained byte costs about two of peak RSS once the GC's headroom is
// counted, so the bound is kept near what one comparison suite uses.
const streamMemoBytes = 1 << 20

// A packed record is one uint32: the time delta from the previous
// packet (bits 24-31), src (16-23), dst (8-15) and flits (0-7). A delta
// of escDelta or more is stored as escDelta with the absolute time
// appended to the stream's escape list, so the record covers any
// non-decreasing time sequence on up to maxPackedNodes nodes.
const (
	escDelta       = 255
	maxPackedNodes = 256
	maxPackedFlits = 255
	recordBytes    = 4
)

// packedStream is a time-ordered packet stream in recordBytes a packet.
// Neither slice holds pointers, so the GC never scans a retained stream.
type packedStream struct {
	recs []uint32
	esc  []int64 // absolute times of the escDelta records, in order
}

func (s *packedStream) bytes() int { return recordBytes*cap(s.recs) + 8*cap(s.esc) }

// streamPacker packs a packet stream one packet at a time.
type streamPacker struct {
	s    packedStream
	last int64
}

func newStreamPacker(packets int) *streamPacker {
	return &streamPacker{s: packedStream{recs: make([]uint32, 0, packets)}}
}

// add packs p, or reports false if p is out of time order or outside
// the record's ranges.
func (k *streamPacker) add(p Packet) bool {
	if p.Time < k.last || p.Src < 0 || p.Src >= maxPackedNodes ||
		p.Dst < 0 || p.Dst >= maxPackedNodes || p.Flits < 0 || p.Flits > maxPackedFlits {
		return false
	}
	d := p.Time - k.last
	if d >= escDelta {
		d = escDelta
		k.s.esc = append(k.s.esc, p.Time)
	}
	k.s.recs = append(k.s.recs, uint32(d)<<24|uint32(p.Src)<<16|uint32(p.Dst)<<8|uint32(p.Flits))
	k.last = p.Time
	return true
}

// finish returns the packed stream with exact-capacity slices.
func (k *streamPacker) finish() *packedStream {
	s := &packedStream{recs: k.s.recs, esc: k.s.esc}
	if cap(s.recs) != len(s.recs) {
		s.recs = make([]uint32, len(k.s.recs))
		copy(s.recs, k.s.recs)
	}
	if cap(s.esc) != len(s.esc) {
		s.esc = make([]int64, len(k.s.esc))
		copy(s.esc, k.s.esc)
	}
	return s
}

// streamCursor replays a packed stream.
type streamCursor struct {
	s        *packedStream
	pos, esc int
	time     int64
}

func (c *streamCursor) next() (Packet, bool) {
	if c.pos >= len(c.s.recs) {
		return Packet{}, false
	}
	r := c.s.recs[c.pos]
	c.pos++
	if d := r >> 24; d == escDelta {
		c.time = c.s.esc[c.esc]
		c.esc++
	} else {
		c.time += int64(d)
	}
	return Packet{Time: c.time, Src: int(r >> 16 & 0xff), Dst: int(r >> 8 & 0xff), Flits: int(r & 0xff)}, true
}

type streamKey struct {
	bench                 string
	width, height, budget int
	seed                  int64
}

type memoEntry struct {
	key    streamKey
	done   chan struct{} // closed once stream is set
	stream *packedStream // nil if the stream could not be packed
	elem   *list.Element // position in lru; nil until retained
}

// streamMemo is a byte-bounded LRU of packed streams with single-flight
// generation: concurrent callers of one key wait on one generation.
type streamMemo struct {
	limit int

	mu      sync.Mutex
	entries map[streamKey]*memoEntry
	lru     list.List // retained entries, most recently used first
	bytes   int       // packed bytes of the retained entries
	// generations counts the streams generated, for tests.
	generations int
}

var parsecStreams = newStreamMemo(streamMemoBytes)

func newStreamMemo(limit int) *streamMemo {
	return &streamMemo{limit: limit, entries: make(map[streamKey]*memoEntry)}
}

// stream returns the packed stream for key, running generate on a miss.
// A stream generate cannot pack (nil), or one larger than the limit, is
// returned to the callers that waited on it but not retained.
func (m *streamMemo) stream(key streamKey, generate func() *packedStream) *packedStream {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		if e.elem != nil {
			m.lru.MoveToFront(e.elem)
		}
		m.mu.Unlock()
		<-e.done
		return e.stream
	}
	e := &memoEntry{key: key, done: make(chan struct{})}
	m.entries[key] = e
	m.generations++
	m.mu.Unlock()

	s := generate()

	m.mu.Lock()
	e.stream = s
	if s == nil || s.bytes() > m.limit {
		delete(m.entries, key)
	} else {
		e.elem = m.lru.PushFront(e)
		m.bytes += s.bytes()
		for m.bytes > m.limit {
			old := m.lru.Remove(m.lru.Back()).(*memoEntry)
			delete(m.entries, old.key)
			m.bytes -= old.stream.bytes()
		}
	}
	m.mu.Unlock()
	close(e.done)
	return s
}

// parsec returns the PARSEC stream for the key as a Parsec: a cursor
// over the memoized packing when one fits this memo and the record's
// ranges, else the lazy generator.
func (m *streamMemo) parsec(prof ParsecProfile, width, height, budget int, seed int64) *Parsec {
	p := &Parsec{profile: prof}
	if width*height <= maxPackedNodes && budget <= m.limit/recordBytes {
		key := streamKey{bench: prof.Name, width: width, height: height, budget: budget, seed: seed}
		s := m.stream(key, func() *packedStream {
			g := newParsecGen(prof, width, height, budget, seed)
			k := newStreamPacker(budget)
			for {
				pkt, ok := g.next()
				if !ok {
					return k.finish()
				}
				if !k.add(pkt) {
					return nil
				}
			}
		})
		if s != nil {
			p.replay = streamCursor{s: s}
			return p
		}
	}
	p.gen = newParsecGen(prof, width, height, budget, seed)
	return p
}
