package harness

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
)

// Store is a digest-keyed results store: an append-only JSONL file plus
// an in-memory index over it. It backs every results file the project
// writes — cmd/experiments' -results, cmd/explore's -results, and the
// daemon's digest store — so resume loading, torn-tail healing and the
// write-then-index order live here and nowhere else. A Pool with
// Options.Store puts every executed record into it; Get is the natural
// Options.Lookup. The file format is the one cmd/regress audits.
type Store struct {
	mu      sync.RWMutex // guards recs
	recs    map[string]Record
	skipped int

	wmu sync.Mutex // serializes appends; nil f means memory-only
	f   *os.File
	bw  *bufio.Writer
}

// OpenStore opens the results file at path. With resume true the
// existing records are loaded into the index (tolerating the torn or
// over-long lines a killed process leaves — see LoadRecords) and new
// records are appended after them; otherwise the file is truncated and
// the index starts empty. An empty path yields a memory-only store that
// indexes records but writes nothing.
func OpenStore(path string, resume bool) (*Store, error) {
	s := &Store{recs: make(map[string]Record)}
	if path == "" {
		return s, nil
	}
	if resume {
		recs, skipped, err := LoadRecords(path)
		if err != nil {
			return nil, err
		}
		s.recs, s.skipped = recs, skipped
	}
	flags := os.O_CREATE | os.O_WRONLY
	if resume {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: opening results stream: %w", err)
	}
	if resume {
		// A killed process may have left a partial line without a
		// trailing newline; terminate it so the next record starts on
		// its own line (LoadRecords skips the corrupt fragment).
		if ok, err := endsWithNewline(path); err != nil {
			f.Close()
			return nil, fmt.Errorf("harness: inspecting results stream: %w", err)
		} else if !ok {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, fmt.Errorf("harness: healing results stream: %w", err)
			}
		}
	}
	s.f, s.bw = f, bufio.NewWriter(f)
	return s, nil
}

// endsWithNewline reports whether the file is empty or newline-terminated.
func endsWithNewline(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return false, err
	}
	if st.Size() == 0 {
		return true, nil
	}
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, st.Size()-1); err != nil {
		return false, err
	}
	return buf[0] == '\n', nil
}

// Get returns the record indexed under digest, if any.
func (s *Store) Get(digest string) (Record, bool) {
	s.mu.RLock()
	rec, ok := s.recs[digest]
	s.mu.RUnlock()
	return rec, ok
}

// put appends one record, flushes it, and only then indexes it, so a
// record Get can serve is already on disk: a crash can lose a record's
// index entry, never leave an indexed record unwritten. Duplicate
// digests keep the first indexed record (as LoadRecords does) but every
// put is appended.
func (s *Store) put(rec Record) error {
	if s.f != nil {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		s.wmu.Lock()
		_, err = s.bw.Write(append(line, '\n'))
		if err == nil {
			err = s.bw.Flush()
		}
		s.wmu.Unlock()
		if err != nil {
			return err
		}
	}
	s.mu.Lock()
	if _, dup := s.recs[rec.Digest]; !dup {
		s.recs[rec.Digest] = rec
	}
	s.mu.Unlock()
	return nil
}

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Skipped reports how many corrupt lines the resume load tolerated.
func (s *Store) Skipped() int { return s.skipped }

// Close flushes and closes the backing file (a no-op when memory-only).
func (s *Store) Close() error {
	if s.f == nil {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.bw.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// maxLineBytes bounds a single record line on load. No record this
// package writes approaches it; a longer line can only be torn-write
// garbage (e.g. a kill mid-write interleaved with a rogue appender), so
// it is skipped as corruption rather than buffered or treated as fatal.
const maxLineBytes = 1 << 24 // 16 MiB

// LoadRecords reads a JSONL results file into a digest-keyed map. A
// missing file yields an empty map (a fresh run). Unparsable lines —
// e.g. a partial last line left by a killed process — are skipped and
// counted, not fatal: resume must tolerate exactly that corruption.
// That tolerance extends to over-long lines: a line beyond maxLineBytes
// (a torn tail, or mid-file garbage) counts as one skipped line instead
// of aborting the load, and its bytes are discarded without buffering.
// Duplicate digests keep the first occurrence.
func LoadRecords(path string) (recs map[string]Record, skipped int, err error) {
	recs = make(map[string]Record)
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return recs, 0, nil
		}
		return nil, 0, fmt.Errorf("harness: opening results for resume: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var line []byte
	overlong := false
	consume := func() {
		defer func() { line, overlong = line[:0], false }()
		if overlong {
			skipped++
			return
		}
		if len(line) == 0 {
			return
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Digest == "" {
			skipped++
			return
		}
		if _, dup := recs[rec.Digest]; !dup {
			recs[rec.Digest] = rec
		}
	}
	for {
		chunk, rerr := br.ReadSlice('\n')
		if rerr == nil {
			chunk = chunk[:len(chunk)-1] // drop the delimiter
		}
		if !overlong {
			line = append(line, chunk...)
			if len(line) > maxLineBytes {
				overlong = true
				line = line[:0]
			}
		}
		switch rerr {
		case nil:
			consume()
		case bufio.ErrBufferFull:
			// Mid-line: keep accumulating (or, once over-long,
			// keep discarding until the next newline).
		case io.EOF:
			consume()
			return recs, skipped, nil
		default:
			return nil, 0, fmt.Errorf("harness: reading results for resume: %w", rerr)
		}
	}
}
