package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	parsvd "goparsvd"
	"goparsvd/internal/testutil"
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

// TestReadMatrixNonFinite decodes bodies carrying NaN, +Inf or −Inf at
// every position of every tail length and requires the rejection to name
// the value and its index.
func TestReadMatrixNonFinite(t *testing.T) {
	testutil.ForEachNonFinite(func(x []float64, bad int) {
		m, err := parsvd.NewMatrixFromData(len(x), 1, append([]float64(nil), x...))
		if err != nil {
			t.Fatal(err)
		}
		body := AppendMatrix(nil, m)
		want := fmt.Sprintf("mat: snapshot block contains a non-finite value (%g) at index %d", x[bad], bad)
		if _, err := ReadMatrix(bytes.NewReader(body), int64(len(body))); err == nil || err.Error() != want {
			t.Fatalf("len %d, %g at %d: err = %v, want %q", len(x), x[bad], bad, err, want)
		}
	})
}

// FuzzDecodeJSONBody feeds arbitrary bytes to the JSON request-body
// decoder as each body it reads: a create spec, a matrix (push, project),
// a sketch factor pair and a merge request. It must refuse malformed
// input with an error, never panic; a body it accepts decodes to a value
// that re-encodes and decodes back to itself, and a matrix it accepts is
// well formed or refused by MatrixJSON.Matrix. Unknown fields are
// ignored, so a spec carrying the retired "init_rank" still loads.
func FuzzDecodeJSONBody(f *testing.F) {
	f.Add([]byte(`{"name":"m","modes":12,"forget_factor":0.95,"init_rank":12}`))
	f.Add([]byte(`{"name":"d","backend":"distributed","ranks":2,"low_rank":{"oversample":5,"seed":-3},"shard":{"index":1,"count":3}}`))
	f.Add([]byte(`{"rows":2,"cols":2,"data":[1,-2.5,3e-300,0]}`))
	f.Add([]byte(`{"q":{"rows":3,"cols":1,"data":[1,0,0]},"s":{"rows":1,"cols":2,"data":[4,5]}}`))
	f.Add([]byte(`{"rows":2,"cols":2,"data":[1,2,3]} {}`))
	f.Add([]byte(`{"model":"shard-1","checkpoint":"R1BTVg=="}`))
	f.Add([]byte(`{"checkpoint":""}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkJSONRoundTrip(t, body, func() any { return new(ModelSpec) })
		if mj, ok := checkJSONRoundTrip(t, body, func() any { return new(MatrixJSON) }).(*MatrixJSON); ok {
			checkMatrixJSON(t, *mj)
		}
		if sj, ok := checkJSONRoundTrip(t, body, func() any { return new(SketchPushJSON) }).(*SketchPushJSON); ok {
			checkMatrixJSON(t, sj.Q)
			checkMatrixJSON(t, sj.S)
		}
		checkJSONRoundTrip(t, body, func() any { return new(MergeRequest) })
	})
}

// checkJSONRoundTrip decodes body into a fresh value from fresh as a
// request body and, when the decoder accepts it, requires the value to
// re-encode and decode to itself. It returns the value, or nil when the
// body was refused.
func checkJSONRoundTrip(t *testing.T, body []byte, fresh func() any) any {
	v := fresh()
	if decodeJSON(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), v) != nil {
		return nil
	}
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("accepted %q as %T, which does not re-encode: %v", body, v, err)
	}
	again := fresh()
	if err := decodeJSON(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(enc)), again); err != nil {
		t.Fatalf("%T re-encoded as %s is refused: %v", v, enc, err)
	}
	// An empty merge checkpoint ("checkpoint":"") decodes to an empty
	// non-nil slice, which omitempty re-encodes as absent and which then
	// decodes as nil. handleMerge tests its length, so both mean "no
	// checkpoint" and count as equal here.
	if mr, ok := v.(*MergeRequest); ok && len(mr.Checkpoint) == 0 {
		mr.Checkpoint = nil
	}
	if !reflect.DeepEqual(v, again) {
		t.Fatalf("%T does not survive a round trip: %+v, then %+v", v, v, again)
	}
	return v
}

// checkMatrixJSON requires an accepted matrix payload to be refused by
// Matrix or to adopt exactly its rows·cols values.
func checkMatrixJSON(t *testing.T, mj MatrixJSON) {
	m, err := mj.Matrix()
	if err != nil {
		return
	}
	if m.Rows() != mj.Rows || m.Cols() != mj.Cols || len(m.RawData()) != mj.Rows*mj.Cols {
		t.Fatalf("a %dx%d payload of %d values became a %dx%d matrix", mj.Rows, mj.Cols, len(mj.Data), m.Rows(), m.Cols())
	}
}
