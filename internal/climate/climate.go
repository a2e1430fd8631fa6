// Package climate generates a synthetic global surface-pressure data set
// standing in for the ERA5 reanalysis used in the paper's Figure 2 (the
// real data set is a restricted-access download of several hundred GB).
//
// The generator composes physically motivated ingredients on a regular
// latitude–longitude grid so that the leading SVD modes are known by
// construction and the coherent-structure extraction of Figure 2 can be
// validated rather than merely reproduced visually:
//
//   - a zonally symmetric climatology (subtropical highs, subpolar lows)
//     that dominates the raw field — the analogue of Figure 2's mode 1;
//   - an annual cycle with opposite phase in the two hemispheres — the
//     analogue of the seasonal structure in mode 2;
//   - a semi-annual oscillation at high latitudes;
//   - eastward-travelling midlatitude planetary waves (wavenumber 4);
//   - AR(1) "weather" noise projected onto a fixed set of smooth random
//     spatial patterns, so snapshots are reproducible for a given seed
//     regardless of evaluation order.
//
// Fields are in hPa. Snapshots are indexed at a fixed cadence (6-hourly in
// the paper's 2013–2020 extraction).
package climate

import (
	"fmt"
	"math"
	"math/rand"

	"goparsvd/internal/mat"
)

// Config describes a synthetic pressure data set.
type Config struct {
	// NLat and NLon give the grid resolution. ERA5 at 2.5° would be 73×144.
	NLat, NLon int
	// Snapshots is the number of time samples.
	Snapshots int
	// StepHours is the time between snapshots (paper: 6-hourly).
	StepHours float64
	// Seed drives the reproducible weather-noise component.
	Seed int64
	// NoiseAmp scales the weather noise (hPa). Zero disables it.
	NoiseAmp float64
	// SubtractClimatology removes the time-mean component from every
	// snapshot, the standard preprocessing for EOF/POD analysis.
	SubtractClimatology bool
}

func (c Config) validate() {
	if c.NLat < 2 || c.NLon < 2 || c.Snapshots < 1 || c.StepHours <= 0 {
		panic(fmt.Sprintf("climate: invalid config %+v", c))
	}
}

// M returns the number of grid points per snapshot (NLat·NLon).
func (c Config) M() int { return c.NLat * c.NLon }

// hoursPerYear uses the 365-day calendar; the annual cycle period.
const hoursPerYear = 365 * 24

// noiseModes is the number of smooth random spatial patterns carrying the
// AR(1) weather noise.
const noiseModes = 8

// Generator produces snapshots deterministically. It is safe for
// concurrent use by multiple goroutines after construction (all state is
// read-only post-New).
type Generator struct {
	cfg Config
	// lat[i], lon[j] in degrees; sinLat etc. precomputed per row/col.
	lat, lon []float64
	// noisePattern[k] is an M-length spatial pattern; noiseCoef[k][s] its
	// AR(1) coefficient at snapshot s (precomputed for reproducibility).
	noisePattern [][]float64
	noiseCoef    [][]float64
}

// New constructs a generator, precomputing the noise series so snapshots
// can be evaluated in any order (and concurrently) with identical results.
func New(cfg Config) *Generator {
	cfg.validate()
	g := &Generator{cfg: cfg}
	g.lat = make([]float64, cfg.NLat)
	for i := range g.lat {
		g.lat[i] = -90 + 180*float64(i)/float64(cfg.NLat-1)
	}
	g.lon = make([]float64, cfg.NLon)
	for j := range g.lon {
		g.lon[j] = 360 * float64(j) / float64(cfg.NLon)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	g.noisePattern = make([][]float64, noiseModes)
	g.noiseCoef = make([][]float64, noiseModes)
	for k := 0; k < noiseModes; k++ {
		// Smooth pattern: product of low-order sinusoids with random
		// wavenumbers and phases, tapered at the poles.
		kLat := 1 + rng.Intn(3)
		kLon := 1 + rng.Intn(4)
		phLat := rng.Float64() * 2 * math.Pi
		phLon := rng.Float64() * 2 * math.Pi
		pattern := make([]float64, cfg.M())
		for i := 0; i < cfg.NLat; i++ {
			latRad := g.lat[i] * math.Pi / 180
			taper := math.Cos(latRad)
			for j := 0; j < cfg.NLon; j++ {
				lonRad := g.lon[j] * math.Pi / 180
				pattern[i*cfg.NLon+j] = taper *
					math.Sin(float64(kLat)*latRad+phLat) *
					math.Cos(float64(kLon)*lonRad+phLon)
			}
		}
		g.noisePattern[k] = pattern

		// AR(1) series: x_{s+1} = ρ·x_s + sqrt(1−ρ²)·ε.
		const rho = 0.95
		coef := make([]float64, cfg.Snapshots)
		x := rng.NormFloat64()
		for s := 0; s < cfg.Snapshots; s++ {
			coef[s] = x
			x = rho*x + math.Sqrt(1-rho*rho)*rng.NormFloat64()
		}
		g.noiseCoef[k] = coef
	}
	return g
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Lat returns the latitude axis in degrees (South to North).
func (g *Generator) Lat() []float64 { return g.lat }

// Lon returns the longitude axis in degrees.
func (g *Generator) Lon() []float64 { return g.lon }

// climatology is the time-independent zonal-mean structure (hPa).
func climatology(latDeg float64) float64 {
	al := math.Abs(latDeg)
	p := 1013.25
	p += 8 * math.Exp(-((al-30)/15)*((al-30)/15))  // subtropical highs
	p -= 12 * math.Exp(-((al-60)/12)*((al-60)/12)) // subpolar lows
	p -= 4 * math.Exp(-(latDeg/10)*(latDeg/10))    // equatorial trough
	return p
}

// annualAmplitude gives the hemisphere-dependent annual-cycle amplitude
// (hPa), strongest over high latitudes and antisymmetric between
// hemispheres (Siberian-high-like behaviour).
func annualAmplitude(latDeg float64) float64 {
	return 6 * math.Sin(latDeg*math.Pi/180) * math.Exp(-((math.Abs(latDeg)-55)/25)*((math.Abs(latDeg)-55)/25))
}

// Value evaluates the pressure field at grid point (i, j) and snapshot s,
// excluding the optional climatology subtraction (see Snapshot).
func (g *Generator) value(i, j, s int) float64 {
	latDeg := g.lat[i]
	latRad := latDeg * math.Pi / 180
	lonRad := g.lon[j] * math.Pi / 180
	tHours := float64(s) * g.cfg.StepHours
	yearPhase := 2 * math.Pi * tHours / hoursPerYear

	p := climatology(latDeg)
	p += annualAmplitude(latDeg) * math.Cos(yearPhase)
	// Semi-annual oscillation at high latitudes.
	p += 2 * math.Exp(-((math.Abs(latDeg)-65)/15)*((math.Abs(latDeg)-65)/15)) *
		math.Cos(2*yearPhase)
	// Eastward-travelling wavenumber-4 midlatitude planetary wave with a
	// ~12-day period, confined to the storm tracks of both hemispheres.
	storm := math.Exp(-((math.Abs(latDeg) - 45) / 12) * ((math.Abs(latDeg) - 45) / 12))
	waveSpeed := 2 * math.Pi / (12 * 24) // rad/hour
	p += 3 * storm * math.Cos(4*lonRad-waveSpeed*tHours)
	// Weather noise.
	if g.cfg.NoiseAmp > 0 {
		idx := i*g.cfg.NLon + j
		n := 0.0
		for k := 0; k < noiseModes; k++ {
			n += g.noiseCoef[k][s] * g.noisePattern[k][idx]
		}
		p += g.cfg.NoiseAmp * n
	}
	_ = latRad
	return p
}

// Snapshot returns snapshot s as a flattened lat-major vector of length M.
func (g *Generator) Snapshot(s int) []float64 {
	if s < 0 || s >= g.cfg.Snapshots {
		panic(fmt.Sprintf("climate: snapshot %d out of [0,%d)", s, g.cfg.Snapshots))
	}
	out := make([]float64, g.cfg.M())
	for i := 0; i < g.cfg.NLat; i++ {
		for j := 0; j < g.cfg.NLon; j++ {
			out[i*g.cfg.NLon+j] = g.value(i, j, s)
		}
	}
	if g.cfg.SubtractClimatology {
		for i := 0; i < g.cfg.NLat; i++ {
			c := climatology(g.lat[i])
			for j := 0; j < g.cfg.NLon; j++ {
				out[i*g.cfg.NLon+j] -= c
			}
		}
	}
	return out
}

// SnapshotMatrix assembles the M×(s1−s0) matrix whose columns are
// snapshots [s0, s1).
func (g *Generator) SnapshotMatrix(s0, s1 int) *mat.Dense {
	if s0 < 0 || s1 > g.cfg.Snapshots || s0 > s1 {
		panic(fmt.Sprintf("climate: snapshot range [%d,%d) out of [0,%d)", s0, s1, g.cfg.Snapshots))
	}
	out := mat.New(g.cfg.M(), s1-s0)
	for s := s0; s < s1; s++ {
		col := g.Snapshot(s)
		out.SetCol(s-s0, col)
	}
	return out
}

// RowBlock assembles rows [r0, r1) of the snapshot matrix for snapshots
// [s0, s1): one rank's share of one streaming batch. Rows are flattened
// grid indices (i·NLon + j).
func (g *Generator) RowBlock(r0, r1, s0, s1 int) *mat.Dense {
	m := g.cfg.M()
	if r0 < 0 || r1 > m || r0 > r1 {
		panic(fmt.Sprintf("climate: row range [%d,%d) out of [0,%d)", r0, r1, m))
	}
	if s0 < 0 || s1 > g.cfg.Snapshots || s0 > s1 {
		panic(fmt.Sprintf("climate: snapshot range [%d,%d) out of [0,%d)", s0, s1, g.cfg.Snapshots))
	}
	out := mat.New(r1-r0, s1-s0)
	for s := s0; s < s1; s++ {
		for r := r0; r < r1; r++ {
			i, j := r/g.cfg.NLon, r%g.cfg.NLon
			v := g.value(i, j, s)
			if g.cfg.SubtractClimatology {
				v -= climatology(g.lat[i])
			}
			out.Set(r-r0, s-s0, v)
		}
	}
	return out
}

// MeanField returns the time-mean of the configured snapshot ensemble
// evaluated analytically: the climatology (plus nothing else, since every
// oscillatory ingredient has zero long-term mean and the AR(1) noise is
// zero-mean). Useful as the reference for mode-1 validation.
func (g *Generator) MeanField() []float64 {
	out := make([]float64, g.cfg.M())
	for i := 0; i < g.cfg.NLat; i++ {
		c := climatology(g.lat[i])
		for j := 0; j < g.cfg.NLon; j++ {
			out[i*g.cfg.NLon+j] = c
		}
	}
	return out
}

// AnnualField returns the spatial pattern of the annual cycle (the
// amplitude field), the reference for mode-2 validation.
func (g *Generator) AnnualField() []float64 {
	out := make([]float64, g.cfg.M())
	for i := 0; i < g.cfg.NLat; i++ {
		a := annualAmplitude(g.lat[i])
		for j := 0; j < g.cfg.NLon; j++ {
			out[i*g.cfg.NLon+j] = a
		}
	}
	return out
}
