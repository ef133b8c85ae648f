package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"

	"intellinoc/internal/noc"
)

// resultDigest hashes every field of a noc.Result, walking the struct by
// reflection so a field added later is covered without touching this
// file. Floats are hashed by their bits: two results agree only if every
// number is bit-identical.
func resultDigest(r noc.Result) string {
	h := sha256.New()
	hashValue(h, reflect.ValueOf(r))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func hashValue(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			h.Write([]byte(v.Type().Field(i).Name))
			hashValue(h, v.Field(i))
		}
	case reflect.Array, reflect.Slice:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	default:
		// noc.Result is plain data; a pointer, map or interface field
		// would need a rule for its identity first.
		panic(fmt.Sprintf("perfbench: cannot hash %s field", v.Kind()))
	}
}

// agreement checks that every result of one configuration is the same.
// The first digest seen for a key is the reference; each later one that
// differs is a failed operation.
type agreement map[string]string

// check reports whether digest agrees with the key's reference.
func (a agreement) check(key, digest string) bool {
	ref, ok := a[key]
	if !ok {
		a[key] = digest
		return true
	}
	return ref == digest
}

// loadGolden reads testdata/golden/quick.digests: job digest to payload
// sha256.
func loadGolden(root string) (map[string]string, error) {
	f, err := os.Open(filepath.Join(root, "testdata", "golden", "quick.digests"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("golden digests: malformed line %q", line)
		}
		out[fields[0]] = fields[1]
	}
	return out, sc.Err()
}

// hostLine records the machine and the build, so numbers from two hosts
// or two trees are never compared silently.
func hostLine(root string, seed int64, wl string, trace int) string {
	info := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"dirty":      "unknown",
		"source":     sourceDigest(root),
		"seed":       seed,
		"workload":   wl,
		"trace":      trace,
	}
	// The go command stamps the commit when it builds inside a git
	// checkout; an exported tree has none, so the source digest is what
	// identifies the build there.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				info["commit"] = s.Value
			case "vcs.modified":
				info["dirty"] = s.Value
			}
		}
	}
	b, _ := json.Marshal(info) // plain values cannot fail to marshal
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files of the checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); !strings.HasSuffix(n, ".go") && n != "go.mod" && n != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
