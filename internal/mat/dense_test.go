package mat

import (
	"math"
	"testing"
)

func TestNewDimensions(t *testing.T) {
	m := New(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims() = %d,%d, want 3,4", r, c)
	}
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("Rows/Cols = %d,%d, want 3,4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("New not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestNewFromDataOwnership(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := NewFromData(2, 3, d)
	if m.At(0, 0) != 1 || m.At(1, 2) != 6 {
		t.Fatalf("NewFromData layout wrong: %v", m)
	}
	d[0] = 99
	if m.At(0, 0) != 99 {
		t.Fatal("NewFromData must wrap without copying")
	}
}

func TestNewFromDataLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	NewFromData(2, 3, []float64{1, 2, 3})
}

func TestNewFromRows(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("unexpected dims %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %g, want 6", m.At(2, 1))
	}
}

func TestNewFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestNewFromRowsEmpty(t *testing.T) {
	m := NewFromRows(nil)
	if !m.IsEmpty() {
		t.Fatal("empty row set should give empty matrix")
	}
}

func TestEye(t *testing.T) {
	m := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if m.At(i, j) != want {
				t.Fatalf("Eye(3)[%d,%d] = %g, want %g", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestSetAt(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 7.5)
	if m.At(1, 0) != 7.5 {
		t.Fatalf("Set/At roundtrip failed: %g", m.At(1, 0))
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	m := New(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d,%d) did not panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestRowViewAliases(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	row := m.RowView(1)
	row[0] = 42
	if m.At(1, 0) != 42 {
		t.Fatal("RowView must alias matrix storage")
	}
}

func TestRowCopies(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	row := m.Row(1)
	row[0] = 42
	if m.At(1, 0) != 3 {
		t.Fatal("Row must copy")
	}
}

func TestSetRowSetCol(t *testing.T) {
	m := New(2, 3)
	m.SetRow(0, []float64{1, 2, 3})
	m.SetCol(2, []float64{9, 8})
	if m.At(0, 0) != 1 || m.At(0, 2) != 9 || m.At(1, 2) != 8 {
		t.Fatalf("SetRow/SetCol wrong: %v", m)
	}
}

func TestColRoundTrip(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	col := m.Col(1)
	if col[0] != 2 || col[1] != 4 || col[2] != 6 {
		t.Fatalf("Col(1) = %v", col)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestCopyFrom(t *testing.T) {
	m := New(2, 2)
	src := NewFromRows([][]float64{{1, 2}, {3, 4}})
	m.CopyFrom(src)
	if !EqualApprox(m, src, 0) {
		t.Fatal("CopyFrom mismatch")
	}
}

func TestCopyFromDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom dim mismatch did not panic")
		}
	}()
	New(2, 2).CopyFrom(New(3, 2))
}

func TestTranspose(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("T dims %dx%d, want 3x2", mt.Rows(), mt.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if !EqualApprox(m, m.T().T(), 0) {
		t.Fatal("(Aᵀ)ᵀ != A")
	}
}

func TestSlice(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Slice(1, 3, 0, 2)
	want := NewFromRows([][]float64{{4, 5}, {7, 8}})
	if !EqualApprox(s, want, 0) {
		t.Fatalf("Slice = %v, want %v", s, want)
	}
	// Slices copy: mutating the slice must not touch the source.
	s.Set(0, 0, -1)
	if m.At(1, 0) != 4 {
		t.Fatal("Slice must copy")
	}
}

func TestSliceColsRows(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if got := m.SliceCols(1, 3); !EqualApprox(got, NewFromRows([][]float64{{2, 3}, {5, 6}}), 0) {
		t.Fatalf("SliceCols wrong: %v", got)
	}
	if got := m.SliceRows(1, 2); !EqualApprox(got, NewFromRows([][]float64{{4, 5, 6}}), 0) {
		t.Fatalf("SliceRows wrong: %v", got)
	}
}

func TestSliceOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds slice did not panic")
		}
	}()
	New(2, 2).Slice(0, 3, 0, 1)
}

func TestColMatrix(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	cm := m.ColMatrix(1)
	if cm.Rows() != 2 || cm.Cols() != 1 || cm.At(0, 0) != 2 || cm.At(1, 0) != 4 {
		t.Fatalf("ColMatrix wrong: %v", cm)
	}
}

func TestDiag(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	d := m.Diag()
	if len(d) != 2 || d[0] != 1 || d[1] != 5 {
		t.Fatalf("Diag = %v", d)
	}
}

func TestFillZero(t *testing.T) {
	m := New(2, 2)
	m.Fill(3)
	if m.At(1, 1) != 3 {
		t.Fatal("Fill failed")
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero failed")
	}
}

func TestFroNorm(t *testing.T) {
	m := NewFromRows([][]float64{{3, 4}})
	if got := m.FroNorm(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("FroNorm = %g, want 5", got)
	}
}

func TestFroNormOverflowSafe(t *testing.T) {
	m := NewFromRows([][]float64{{1e200, 1e200}})
	want := 1e200 * math.Sqrt(2)
	if got := m.FroNorm(); math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("FroNorm overflowed: %g, want %g", got, want)
	}
}

func TestMaxAbs(t *testing.T) {
	m := NewFromRows([][]float64{{-7, 2}, {3, 4}})
	if got := m.MaxAbs(); got != 7 {
		t.Fatalf("MaxAbs = %g, want 7", got)
	}
}

func TestColNorm(t *testing.T) {
	m := NewFromRows([][]float64{{3, 0}, {4, 2}})
	if got := m.ColNorm(0); math.Abs(got-5) > 1e-15 {
		t.Fatalf("ColNorm(0) = %g, want 5", got)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := NewFromRows([][]float64{{1, 2}})
	if small.String() == "" {
		t.Fatal("String() of small matrix empty")
	}
	large := New(100, 100)
	if large.String() == "" {
		t.Fatal("String() of large matrix empty")
	}
}
