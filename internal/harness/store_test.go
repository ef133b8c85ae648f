package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testRecord(i int) Record {
	return Record{
		Digest:   fmt.Sprintf("digest-%04d", i),
		Kind:     "run",
		Name:     fmt.Sprintf("job-%d", i),
		Seed:     int64(i),
		WallMS:   1.5,
		Attempts: 1,
		Payload:  json.RawMessage(fmt.Sprintf(`{"value":%d}`, i)),
	}
}

func writeRecords(t *testing.T, path string, resume bool, recs ...Record) {
	t.Helper()
	st, err := OpenStore(path, resume)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := st.put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// A torn tail longer than the line cap must be tolerated as skipped
// corruption, exactly like a short torn tail — LoadRecords' contract is
// that resume survives whatever a killed process leaves behind.
func TestLoadRecordsOverlongTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	writeRecords(t, path, false, testRecord(1), testRecord(2))

	// A kill mid-write of a pathologically large record leaves a tail
	// beyond the 16 MiB cap with no trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tail := `{"digest":"torn","payload":"` + strings.Repeat("x", maxLineBytes)
	if _, err := f.WriteString(tail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	recs, skipped, err := LoadRecords(path)
	if err != nil {
		t.Fatalf("LoadRecords must tolerate an over-long torn tail, got: %v", err)
	}
	if len(recs) != 2 || skipped != 1 {
		t.Fatalf("got %d records, %d skipped; want 2 records, 1 skipped", len(recs), skipped)
	}
	if _, ok := recs["digest-0001"]; !ok {
		t.Fatal("intact record lost")
	}
}

// An over-long line mid-file (newline-terminated garbage) is skipped
// without losing the valid records on either side of it.
func TestLoadRecordsOverlongMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	writeRecords(t, path, false, testRecord(1))

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(strings.Repeat("y", maxLineBytes+7) + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	writeRecords(t, path, true, testRecord(2))

	recs, skipped, err := LoadRecords(path)
	if err != nil {
		t.Fatalf("LoadRecords must tolerate an over-long mid-file line, got: %v", err)
	}
	if len(recs) != 2 || skipped != 1 {
		t.Fatalf("got %d records, %d skipped; want 2 records, 1 skipped", len(recs), skipped)
	}
}

// Lines right at the cap are still records, one byte over is corruption:
// the boundary must not eat valid data.
func TestLoadRecordsLineCapBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	rec := testRecord(1)
	// Pad the payload so the marshaled line is exactly maxLineBytes.
	base, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	pad := maxLineBytes - len(base) - len(`,"pad":""`) + len(`{"value":1}`) - len(rec.Payload)
	rec.Payload = json.RawMessage(fmt.Sprintf(`{"value":1,"pad":%q}`, strings.Repeat("p", pad)))
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(line) != maxLineBytes {
		t.Fatalf("test construction: line is %d bytes, want %d", len(line), maxLineBytes)
	}
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || skipped != 0 {
		t.Fatalf("cap-sized line rejected: %d records, %d skipped", len(recs), skipped)
	}
	if !bytes.Equal(recs[rec.Digest].Payload, rec.Payload) {
		t.Fatal("cap-sized payload corrupted")
	}
}

// Kill/resume round-trip: truncating the stream mid-record (what a kill
// leaves) must cost exactly the torn record; OpenStore(resume) heals
// the tail and appended records coexist with the survivors.
func TestWriterKillResumeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	writeRecords(t, path, false, testRecord(1), testRecord(2), testRecord(3))

	// Simulate a kill mid-write: chop the file inside the last line.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-10); err != nil {
		t.Fatal(err)
	}

	recs, skipped, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || skipped != 1 {
		t.Fatalf("after truncation: %d records, %d skipped; want 2, 1", len(recs), skipped)
	}

	writeRecords(t, path, true, testRecord(3), testRecord(4))
	recs, skipped, err = LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || skipped != 1 {
		t.Fatalf("after resume: %d records, %d skipped; want 4, 1", len(recs), skipped)
	}
	for _, want := range []int{1, 2, 3, 4} {
		rec, ok := recs[fmt.Sprintf("digest-%04d", want)]
		if !ok {
			t.Fatalf("record %d missing after resume", want)
		}
		if got := string(rec.Payload); got != fmt.Sprintf(`{"value":%d}`, want) {
			t.Fatalf("record %d payload corrupted: %s", want, got)
		}
	}
}

// Concurrent puts into one Store must interleave at record granularity:
// every record intact and indexed, nothing skipped.
func TestConcurrentWritersCrashConsistency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := testRecord(g*perWriter + i)
				if err := st.put(rec); err != nil {
					t.Error(err)
					return
				}
				if _, ok := st.Get(rec.Digest); !ok {
					t.Errorf("record %s not served after put returned", rec.Digest)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st.Len() != writers*perWriter {
		t.Fatalf("indexed %d records, want %d", st.Len(), writers*perWriter)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*perWriter || skipped != 0 {
		t.Fatalf("got %d records, %d skipped; want %d, 0", len(recs), skipped, writers*perWriter)
	}
}

// OpenStore without resume truncates the file and starts with an empty
// index; with resume it indexes what is there and appends after it.
func TestOpenStoreTruncateVsResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	writeRecords(t, path, false, testRecord(1), testRecord(2))

	st, err := OpenStore(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 || st.Skipped() != 0 {
		t.Fatalf("resumed store: len=%d skipped=%d, want 2/0", st.Len(), st.Skipped())
	}
	if rec, ok := st.Get("digest-0002"); !ok || string(rec.Payload) != `{"value":2}` {
		t.Fatalf("resumed store lost record 2: %+v %v", rec, ok)
	}
	if err := st.put(testRecord(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if recs, _, err := LoadRecords(path); err != nil || len(recs) != 3 {
		t.Fatalf("resume must append: %d records, err %v", len(recs), err)
	}

	st, err = OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Fatalf("truncating open indexed %d records", st.Len())
	}
	if _, ok := st.Get("digest-0001"); ok {
		t.Fatal("truncating open served an old record")
	}
	if err := st.put(testRecord(4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := recs["digest-0004"]; len(recs) != 1 || !ok {
		t.Fatalf("truncated file holds %d records, want only record 4", len(recs))
	}
}

// An empty path gives a memory-only store: it indexes (first digest
// wins) but owns no file.
func TestMemoryOnlyStore(t *testing.T) {
	for _, resume := range []bool{false, true} {
		st, err := OpenStore("", resume)
		if err != nil {
			t.Fatal(err)
		}
		first, second := testRecord(1), testRecord(1)
		second.Payload = json.RawMessage(`{"value":"dup"}`)
		for _, rec := range []Record{first, second} {
			if err := st.put(rec); err != nil {
				t.Fatal(err)
			}
		}
		rec, ok := st.Get(first.Digest)
		if !ok || string(rec.Payload) != string(first.Payload) || st.Len() != 1 {
			t.Fatalf("resume=%v: got %+v %v len %d, want the first record only", resume, rec, ok, st.Len())
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A torn tail is healed through OpenStore: the fragment counts as one
// skipped line, and records put afterwards land on their own lines.
func TestOpenStoreHealsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	writeRecords(t, path, false, testRecord(1), testRecord(2))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"digest":"torn","pay`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 || st.Skipped() != 1 {
		t.Fatalf("torn store: len=%d skipped=%d, want 2/1", st.Len(), st.Skipped())
	}
	if err := st.put(testRecord(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := recs["digest-0003"]; len(recs) != 3 || skipped != 1 || !ok {
		t.Fatalf("after healing: %d records, %d skipped; want 3, 1 with record 3", len(recs), skipped)
	}
}

// Get serves a record only once put has returned nil: a failed append
// leaves it unindexed, and a pool job whose record cannot be stored
// fails instead of resolving.
func TestStoreGetOnlyAfterPut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := OpenStore(path, false)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(1)
	if _, ok := st.Get(rec.Digest); ok {
		t.Fatal("record served before put")
	}
	if err := st.put(rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(rec.Digest); !ok {
		t.Fatal("record not served after a successful put")
	}

	st.f.Close() // every later append fails
	bad := testRecord(2)
	if err := st.put(bad); err == nil {
		t.Fatal("put on a closed file must fail")
	}
	if _, ok := st.Get(bad.Digest); ok {
		t.Fatal("record indexed although its append failed")
	}
	p := NewPool(Options{Workers: 1, Store: st})
	fut := p.Submit(Job{Digest: "digest-0003", Name: "unstorable", Run: func() (any, error) { return 3, nil }})
	p.Close()
	if _, err := fut.Wait(); err == nil || !strings.Contains(err.Error(), "storing unstorable") {
		t.Fatalf("want a storing error, got %v", err)
	}
	if _, ok := st.Get("digest-0003"); ok {
		t.Fatal("pool job indexed although its append failed")
	}
}
