package launch

import (
	"bytes"
	"encoding/json"
	"flag"
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

// TestEngineSpecArgsRoundTrip: the flags Args writes parse back through
// SpecFlags to the same spec, the forget factor bit for bit, and an empty
// command line parses to the zero spec.
func TestEngineSpecArgsRoundTrip(t *testing.T) {
	for _, spec := range []EngineSpec{
		{},
		{K: 16, FF: 1},
		{K: 6, FF: 0.95},
		{K: 3, FF: 0.1 + 0.2, LowRank: true, Oversample: 7, PowerIters: 2, Seed: -1 << 62},
		{K: 1, FF: math.Nextafter(1, 0)},
		{K: 1, FF: 5e-324, Seed: 42},
		{K: -4, FF: -0.5, Oversample: -2, PowerIters: -3}, // refused later, but carried as given
	} {
		fs := flag.NewFlagSet("parsvd-worker", flag.ContinueOnError)
		got := SpecFlags(fs)
		if err := fs.Parse(spec.Args()); err != nil {
			t.Fatalf("parsing %q: %v", spec.Args(), err)
		}
		if *got != spec || math.Float64bits(got.FF) != math.Float64bits(spec.FF) {
			t.Errorf("%+v crossed argv (%q) as %+v", spec, spec.Args(), *got)
		}
		if fs.NArg() != 0 {
			t.Errorf("%q left arguments %q", spec.Args(), fs.Args())
		}
	}
	fs := flag.NewFlagSet("parsvd-worker", flag.ContinueOnError)
	if got := SpecFlags(fs); fs.Parse(nil) != nil || *got != (EngineSpec{}) {
		t.Errorf("an empty command line parsed to %+v, want the zero spec", *got)
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
