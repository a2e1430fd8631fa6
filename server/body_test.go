package server

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// HostileBodies returns the committed FuzzReadMatrix seed corpus by seed
// name: one binary matrix body per class of malformed input (truncated
// header, lying or wrapping count, n ≠ rows·cols, bad tag or dims,
// NaN/Inf, trailing bytes). Every decoder must refuse each of them.
func HostileBodies(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzReadMatrix", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no FuzzReadMatrix seed corpus: %v", err)
	}
	bodies := make(map[string][]byte, len(paths))
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" || !ok {
			t.Fatalf("%s is not a one-value []byte corpus file", path)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		bodies[filepath.Base(path)] = []byte(s)
	}
	return bodies
}

// FuzzReadMatrix feeds arbitrary bytes to the binary matrix decoder as a
// one-matrix body (push, project) and a two-matrix body (push-sketch).
// It must refuse malformed input with an error — never panic, never
// allocate much beyond the bytes it was given — and whatever it accepts
// must be well-formed and re-encode to exactly the input.
func FuzzReadMatrix(f *testing.F) {
	f.Add(AppendMatrix(nil, detMatrix(3, 2, 1)))
	f.Add(AppendMatrix(AppendMatrix(nil, detMatrix(4, 2, 0)), detMatrix(2, 3, 5)))
	// Scratch buffers, the matrix header and error text, with room for
	// the runtime's own bookkeeping.
	const slack = 1 << 20
	f.Fuzz(func(t *testing.T, body []byte) {
		for count := 1; count <= 2; count++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ms, err := readMatrices(bytes.NewReader(body), int64(len(body)), count)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(body))+slack {
				t.Fatalf("decoding a %d-byte body allocated %d bytes", len(body), grew)
			}
			if err != nil {
				continue
			}
			var again []byte
			for _, m := range ms {
				if m.Rows() < 1 || m.Cols() < 1 || len(m.RawData()) != m.Rows()*m.Cols() {
					t.Fatalf("accepted a malformed %dx%d matrix with %d values", m.Rows(), m.Cols(), len(m.RawData()))
				}
				for _, v := range m.RawData() {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("accepted a non-finite value %g", v)
					}
				}
				again = AppendMatrix(again, m)
			}
			if !bytes.Equal(again, body) {
				t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(body), len(again))
			}
		}
	})
}
