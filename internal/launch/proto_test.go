package launch

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"goparsvd/internal/mat"
	"goparsvd/internal/testutil"
)

// TestAppendStatusMatchesJSON: the OK body a worker encodes by hand is
// byte for byte what json.Marshal writes for the same status, with and
// without a modes hash and a spectrum, and DecodeStatus reads it back —
// the spectrum bit for bit, non-finite values included; encoding into a
// reused buffer allocates nothing.
func TestAppendStatusMatchesJSON(t *testing.T) {
	spectrum := []float64{3.5, 1e-300, math.Copysign(0, -1), math.Inf(1), math.Float64frombits(0x7ff8_0000_dead_beef)}
	var bits []uint64
	for _, v := range spectrum {
		bits = append(bits, math.Float64bits(v))
	}
	for _, st := range []SessionStatus{
		{},
		{Rank: 1, Messages: 4, BytesSent: 20608, BytesRecv: -3, Rows: 2048, Snapshots: 160, Iterations: 9},
		{Rank: 0, Messages: 1 << 40, Rows: 7, Snapshots: 16, ModesSHA: HashModes(mat.Eye(3))},
		{Rank: 0, Rows: 7, Snapshots: 16, ModesSHA: HashModes(mat.Eye(3)), SpectrumBits: bits},
	} {
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendStatus(nil, st, []byte(st.ModesSHA), st.Spectrum())
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendStatus = %s, json.Marshal = %s", got, want)
		}
		if back, err := DecodeStatus(got); err != nil || !reflect.DeepEqual(back, st) {
			t.Fatalf("DecodeStatus(AppendStatus(%+v)) = %+v, %v", st, back, err)
		}
	}
	buf := make([]byte, 0, 512)
	st := SessionStatus{Rank: 1, Messages: 4, Rows: 2048}
	sha := []byte(HashModes(mat.Eye(3)))
	if n := testing.AllocsPerRun(20, func() { buf = AppendStatus(buf[:0], st, sha, spectrum) }); n != 0 {
		t.Fatalf("AppendStatus into a reused buffer allocates %v times, want 0", n)
	}
}

// TestDecodeFloatsAllocatesResult: a FLOATS reply is decoded straight from
// its body; the vector it returns is the one allocation.
func TestDecodeFloatsAllocatesResult(t *testing.T) {
	v := []float64{5, 4, 3, 2, 1, 0.5, 0.25, 0.125, 1e-300, -0.0, 3, 2, 1, 1, 1, 1}
	body := AppendFloats(nil, v)
	if got, err := DecodeFloats(body); err != nil || !equalFloatsBits(got, v) {
		t.Fatalf("DecodeFloats = %v, %v", got, err)
	}
	if n := testing.AllocsPerRun(20, func() { DecodeFloats(body) }); n != 1 {
		t.Fatalf("DecodeFloats allocates %v times, want 1 (the result)", n)
	}
}

// TestModesHasherBlocks: hashing the mode-major column blocks a gather
// returns gives HashModes of the M×K matrix they make up, and a reused
// hasher digests again without allocating.
func TestModesHasherBlocks(t *testing.T) {
	rng := testutil.NewRand(2)
	b0, b1, b2 := testutil.RandomDense(4, 7, rng), testutil.RandomDense(4, 5, rng), testutil.RandomDense(4, 1, rng)
	want := HashModes(mat.HStack(b0, b1, b2).T())
	if got := HashModeRows(b0, b1, b2); got != want {
		t.Fatalf("HashModeRows(blocks) = %s, HashModes = %s", got, want)
	}
	if got := HashModeRows(mat.HStack(b0, b1, b2)); got != want {
		t.Fatalf("HashModeRows(stacked) = %s, HashModes = %s", got, want)
	}
	var mh ModesHasher
	blocks := []*mat.Dense{b0, b1, b2}
	if got := string(mh.ModeRows(blocks...)); got != want {
		t.Fatalf("ModesHasher = %s, HashModes = %s", got, want)
	}
	if n := testing.AllocsPerRun(20, func() { mh.ModeRows(blocks...) }); n != 0 {
		t.Fatalf("a reused ModesHasher allocates %v times, want 0", n)
	}
}
