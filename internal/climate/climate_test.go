package climate

import (
	"math"
	"testing"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
)

func testConfig() Config {
	return Config{
		NLat: 19, NLon: 36,
		Snapshots: 200, StepHours: 6,
		Seed: 42, NoiseAmp: 1.0,
	}
}

func TestAxes(t *testing.T) {
	g := New(testConfig())
	lat := g.Lat()
	if lat[0] != -90 || lat[len(lat)-1] != 90 {
		t.Fatalf("lat range %g..%g", lat[0], lat[len(lat)-1])
	}
	lon := g.Lon()
	if lon[0] != 0 || lon[len(lon)-1] >= 360 {
		t.Fatalf("lon range %g..%g", lon[0], lon[len(lon)-1])
	}
}

func TestSnapshotShapeAndRange(t *testing.T) {
	g := New(testConfig())
	s := g.Snapshot(0)
	if len(s) != g.Config().M() {
		t.Fatalf("snapshot length %d, want %d", len(s), g.Config().M())
	}
	for i, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("snapshot[%d] = %g", i, v)
		}
		// Surface pressure stays within a plausible band.
		if v < 950 || v > 1060 {
			t.Fatalf("snapshot[%d] = %g hPa outside plausible range", i, v)
		}
	}
}

func TestDeterministicAcrossGenerators(t *testing.T) {
	cfg := testConfig()
	a := New(cfg).Snapshot(57)
	b := New(cfg).Snapshot(57)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce identical snapshots")
		}
	}
}

func TestOrderIndependentEvaluation(t *testing.T) {
	cfg := testConfig()
	g1 := New(cfg)
	early := g1.Snapshot(3)
	g2 := New(cfg)
	_ = g2.Snapshot(150) // evaluate out of order first
	late := g2.Snapshot(3)
	for i := range early {
		if early[i] != late[i] {
			t.Fatal("snapshot content must not depend on evaluation order")
		}
	}
}

func TestSeedChangesNoise(t *testing.T) {
	cfg := testConfig()
	a := New(cfg).Snapshot(10)
	cfg.Seed = 43
	b := New(cfg).Snapshot(10)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should alter the weather noise")
	}
}

func TestNoiseAmpZeroIsClean(t *testing.T) {
	cfg := testConfig()
	cfg.NoiseAmp = 0
	cfg.Seed = 1
	a := New(cfg).Snapshot(10)
	cfg.Seed = 999
	b := New(cfg).Snapshot(10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("with NoiseAmp=0 the field must be seed-independent")
		}
	}
}

func TestSnapshotMatrixConsistency(t *testing.T) {
	g := New(testConfig())
	m := g.SnapshotMatrix(5, 9)
	if m.Rows() != g.Config().M() || m.Cols() != 4 {
		t.Fatalf("matrix shape %dx%d", m.Rows(), m.Cols())
	}
	for s := 5; s < 9; s++ {
		col := g.Snapshot(s)
		for r := 0; r < m.Rows(); r++ {
			if m.At(r, s-5) != col[r] {
				t.Fatalf("matrix column %d disagrees with Snapshot(%d)", s-5, s)
			}
		}
	}
}

func TestRowBlockConsistency(t *testing.T) {
	g := New(testConfig())
	full := g.SnapshotMatrix(0, 12)
	blk := g.RowBlock(100, 250, 0, 12)
	if !mat.EqualApprox(blk, full.Slice(100, 250, 0, 12), 0) {
		t.Fatal("RowBlock disagrees with SnapshotMatrix")
	}
}

func TestAnnualCyclePresent(t *testing.T) {
	// A high-latitude point must show a yearly oscillation: values half a
	// year apart differ by roughly twice the annual amplitude.
	cfg := testConfig()
	cfg.NoiseAmp = 0
	cfg.Snapshots = 4 * 365 // one year of 6-hourly samples
	g := New(cfg)
	// Pick the grid row closest to 60N.
	i := 0
	for r, la := range g.Lat() {
		if math.Abs(la-60) < math.Abs(g.Lat()[i]-60) {
			i = r
		}
	}
	idx := i * cfg.NLon
	winter := g.Snapshot(0)[idx]
	summer := g.Snapshot(2 * 365)[idx] // half a year later
	if math.Abs(winter-summer) < 4 {
		t.Fatalf("annual cycle too weak at 60N: |%g − %g| = %g",
			winter, summer, math.Abs(winter-summer))
	}
}

func TestTravellingWaveMoves(t *testing.T) {
	// The planetary wave pattern at 45N must shift in longitude over time:
	// the spatial correlation between snapshots 6 days apart (half the
	// wave period) should be negative after removing the static field.
	cfg := testConfig()
	cfg.NoiseAmp = 0
	cfg.Snapshots = 100
	g := New(cfg)
	i := 0
	for r, la := range g.Lat() {
		if math.Abs(la-45) < math.Abs(g.Lat()[i]-45) {
			i = r
		}
	}
	now := g.Snapshot(0)
	later := g.Snapshot(24) // 24 × 6h = 6 days = half the 12-day period
	// Compare zonal anomalies (deviation from the zonal mean), which
	// isolates the wave from the static and annual components.
	anom := func(snap []float64) []float64 {
		mean := 0.0
		for j := 0; j < cfg.NLon; j++ {
			mean += snap[i*cfg.NLon+j]
		}
		mean /= float64(cfg.NLon)
		out := make([]float64, cfg.NLon)
		for j := 0; j < cfg.NLon; j++ {
			out[j] = snap[i*cfg.NLon+j] - mean
		}
		return out
	}
	a0, a1 := anom(now), anom(later)
	dot := 0.0
	for j := range a0 {
		dot += a0[j] * a1[j]
	}
	if dot >= 0 {
		t.Fatalf("wave did not propagate: anomaly autocorrelation %g >= 0", dot)
	}
}

func TestLeadingModeIsClimatology(t *testing.T) {
	// The raw field's first SVD mode must be the (normalized) mean
	// structure: exactly the "mode 1" of the paper's Figure 2 analysis.
	cfg := testConfig()
	cfg.Snapshots = 120
	g := New(cfg)
	a := g.SnapshotMatrix(0, 120)
	u, _, _ := linalg.SVDTruncated(a, 1)
	mode1 := u.Col(0)
	mean := g.MeanField()
	// Normalize and compare |cosine similarity| ≈ 1.
	dot, nm, nu := 0.0, 0.0, 0.0
	for i := range mean {
		dot += mean[i] * mode1[i]
		nm += mean[i] * mean[i]
		nu += mode1[i] * mode1[i]
	}
	cos := math.Abs(dot) / math.Sqrt(nm*nu)
	if cos < 0.999 {
		t.Fatalf("mode 1 vs climatology cosine %g, want ~1", cos)
	}
}

func TestAnomalyLeadingModeIsAnnualCycle(t *testing.T) {
	// With the climatology removed, the dominant coherent structure over
	// full years is the annual cycle.
	cfg := testConfig()
	cfg.SubtractClimatology = true
	cfg.NoiseAmp = 0.2
	cfg.Snapshots = 2 * 1460 // two years, 6-hourly
	g := New(cfg)
	// Subsample every 10th snapshot to keep the test fast.
	cols := make([]*mat.Dense, 0, 292)
	for s := 0; s < cfg.Snapshots; s += 10 {
		cols = append(cols, mat.NewFromData(g.Config().M(), 1, g.Snapshot(s)))
	}
	a := mat.HStack(cols...)
	u, _, _ := linalg.SVDTruncated(a, 1)
	mode1 := u.Col(0)
	annual := g.AnnualField()
	dot, na, nu := 0.0, 0.0, 0.0
	for i := range annual {
		dot += annual[i] * mode1[i]
		na += annual[i] * annual[i]
		nu += mode1[i] * mode1[i]
	}
	cos := math.Abs(dot) / math.Sqrt(na*nu)
	if cos < 0.95 {
		t.Fatalf("anomaly mode 1 vs annual pattern cosine %g, want > 0.95", cos)
	}
}

func TestInvalidAccessPanics(t *testing.T) {
	g := New(testConfig())
	for name, fn := range map[string]func(){
		"snapshot index": func() { g.Snapshot(-1) },
		"matrix range":   func() { g.SnapshotMatrix(5, 3) },
		"row range":      func() { g.RowBlock(-1, 5, 0, 1) },
		"bad config":     func() { New(Config{NLat: 1, NLon: 10, Snapshots: 5, StepHours: 6}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		})
	}
}
