// Package postproc mirrors PyParSVD's `postprocessing` module: utilities to
// report singular-value spectra, export and compare SVD modes, and render
// quick-look plots without any plotting dependency (ASCII line plots for
// 1-D modes, PGM heatmaps for lat-lon fields).
//
// Like the Python module, it binds to the engines only through their
// output data (modes + singular values), so the same routines serve the
// serial and parallel paths.
package postproc

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"

	"goparsvd/internal/mat"
)

// AlignSigns returns a copy of candidate with each column negated when that
// improves its inner-product alignment with the corresponding reference
// column. Singular vectors are defined only up to sign, so any serial vs
// parallel comparison must align first (this is what makes the paper's
// Figure 1 overlays meaningful).
func AlignSigns(reference, candidate *mat.Dense) *mat.Dense {
	r, c := reference.Dims()
	cr, cc := candidate.Dims()
	if r != cr || c != cc {
		panic(fmt.Sprintf("postproc: AlignSigns shape mismatch %dx%d vs %dx%d", r, c, cr, cc))
	}
	out := candidate.Clone()
	for j := 0; j < c; j++ {
		dot := 0.0
		for i := 0; i < r; i++ {
			dot += reference.At(i, j) * candidate.At(i, j)
		}
		if dot < 0 {
			for i := 0; i < r; i++ {
				out.Set(i, j, -out.At(i, j))
			}
		}
	}
	return out
}

// ModeError summarizes the discrepancy of one mode between two
// decompositions after sign alignment.
type ModeError struct {
	Mode   int     // zero-based mode index
	L2     float64 // ‖u_ref − u_cand‖₂
	MaxAbs float64 // max_i |u_ref[i] − u_cand[i]|
	Cosine float64 // |⟨u_ref, u_cand⟩| / (‖u_ref‖·‖u_cand‖)
}

// CompareModes computes per-mode errors between a reference and candidate
// mode matrix (columns are modes). Both must have identical shapes.
func CompareModes(reference, candidate *mat.Dense) []ModeError {
	aligned := AlignSigns(reference, candidate)
	r, c := reference.Dims()
	out := make([]ModeError, c)
	for j := 0; j < c; j++ {
		var l2, maxAbs, dot, nr, nc float64
		for i := 0; i < r; i++ {
			a, b := reference.At(i, j), aligned.At(i, j)
			d := a - b
			l2 += d * d
			if ad := math.Abs(d); ad > maxAbs {
				maxAbs = ad
			}
			dot += a * b
			nr += a * a
			nc += b * b
		}
		cos := 0.0
		if nr > 0 && nc > 0 {
			cos = math.Abs(dot) / math.Sqrt(nr*nc)
		}
		out[j] = ModeError{Mode: j, L2: math.Sqrt(l2), MaxAbs: maxAbs, Cosine: cos}
	}
	return out
}

// EnergyFractions returns, for each k, the fraction of total "energy"
// (sum of squared singular values) captured by the first k+1 modes.
func EnergyFractions(s []float64) []float64 {
	total := 0.0
	for _, v := range s {
		total += v * v
	}
	out := make([]float64, len(s))
	acc := 0.0
	for i, v := range s {
		acc += v * v
		if total > 0 {
			out[i] = acc / total
		}
	}
	return out
}

// SingularValueReport renders a fixed-width table of singular values with
// cumulative energy fractions — the textual counterpart of PyParSVD's
// singular-value plot.
func SingularValueReport(w io.Writer, s []float64) {
	frac := EnergyFractions(s)
	fmt.Fprintf(w, "%4s  %14s  %10s\n", "mode", "sigma", "cum.energy")
	for i, v := range s {
		fmt.Fprintf(w, "%4d  %14.6e  %10.6f\n", i+1, v, frac[i])
	}
}

// WriteSingularValuesCSV writes one row per mode with the given labelled
// series (all series must have equal length). It returns the first write
// error.
func WriteSingularValuesCSV(w io.Writer, labels []string, series ...[]float64) error {
	if len(labels) != len(series) {
		return fmt.Errorf("postproc: %d labels for %d series", len(labels), len(series))
	}
	n := 0
	for i, s := range series {
		if i == 0 {
			n = len(s)
		} else if len(s) != n {
			return fmt.Errorf("postproc: series %d has %d rows, want %d", i, len(s), n)
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "mode,%s\n", strings.Join(labels, ","))
	for i := 0; i < n; i++ {
		fmt.Fprintf(bw, "%d", i+1)
		for _, s := range series {
			fmt.Fprintf(bw, ",%.12e", s[i])
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush() // a bufio.Writer keeps its first write error
}

// WriteModesCSV writes the 1-D modes as columns against the coordinate x:
// header "x,mode1,mode2,..." then one row per grid point. This is the file
// behind the Figure 1(a,b) overlays. It returns the first write error.
func WriteModesCSV(w io.Writer, x []float64, modes *mat.Dense) error {
	r, c := modes.Dims()
	if len(x) != r {
		return fmt.Errorf("postproc: %d coordinates for %d rows", len(x), r)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "x")
	for j := 0; j < c; j++ {
		fmt.Fprintf(bw, ",mode%d", j+1)
	}
	fmt.Fprintln(bw)
	for i := 0; i < r; i++ {
		fmt.Fprintf(bw, "%.12e", x[i])
		for j := 0; j < c; j++ {
			fmt.Fprintf(bw, ",%.12e", modes.At(i, j))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// ASCIIPlot renders labelled 1-D series as a terminal line plot of the
// given width and height. Series are downsampled to the width; each series
// uses its own marker. It is the quick-look equivalent of the paper's mode
// overlays.
func ASCIIPlot(w io.Writer, title string, width, height int, labels []string, series ...[]float64) {
	if len(series) == 0 || width < 8 || height < 4 {
		fmt.Fprintln(w, title+" (nothing to plot)")
		return
	}
	markers := []byte{'*', '+', 'o', 'x', '#', '@'}
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, v := range s {
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
	}
	if minV == maxV {
		maxV = minV + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		if len(s) == 0 {
			continue
		}
		m := markers[si%len(markers)]
		for col := 0; col < width; col++ {
			idx := col * (len(s) - 1) / maxInt(width-1, 1)
			v := s[idx]
			row := int((maxV - v) / (maxV - minV) * float64(height-1))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][col] = m
		}
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%11.3e ┌%s┐\n", maxV, strings.Repeat("─", width))
	for r := 0; r < height; r++ {
		fmt.Fprintf(w, "            │%s│\n", string(grid[r]))
	}
	fmt.Fprintf(w, "%11.3e └%s┘\n", minV, strings.Repeat("─", width))
	var legend []string
	for si, lab := range labels {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], lab))
	}
	if len(legend) > 0 {
		fmt.Fprintln(w, "            "+strings.Join(legend, "   "))
	}
}

// WritePGMHeatmap renders a lat-lon field (row-major, nlat×nlon) as an
// 8-bit grayscale PGM image, linearly mapping [min, max] to [0, 255]. PGM
// is plain-text and dependency-free; the Figure 2 mode maps are emitted in
// this form. It returns the first write error.
func WritePGMHeatmap(w io.Writer, field []float64, nlat, nlon int) error {
	if len(field) != nlat*nlon {
		return fmt.Errorf("postproc: field has %d values for %dx%d grid", len(field), nlat, nlon)
	}
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, v := range field {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if minV == maxV {
		maxV = minV + 1
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P2\n%d %d\n255\n", nlon, nlat)
	for i := 0; i < nlat; i++ {
		for j := 0; j < nlon; j++ {
			v := field[i*nlon+j]
			g := int((v - minV) / (maxV - minV) * 255)
			if j > 0 {
				fmt.Fprint(bw, " ")
			}
			fmt.Fprintf(bw, "%d", g)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
