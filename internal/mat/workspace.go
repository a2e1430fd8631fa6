package mat

// Workspace is a reusable buffer pool for the temporaries of an iterative
// hot path. A streaming decomposition allocates its matrices and scratch
// slices from one Workspace; once the pool has warmed up (after the first
// iteration, when batch shapes are steady), every Get is satisfied by
// recycled storage and the iteration performs no heap allocations.
//
// All methods are safe on a nil *Workspace, which degrades to plain
// allocation — APIs can accept an optional workspace without branching.
// A Workspace is not safe for concurrent use; give each goroutine its own.
type Workspace struct {
	free   []*Dense
	floats [][]float64
	ints   [][]int
	views  []*Dense
	rowSet [][][]float64
}

// Get returns a zeroed r×c matrix, recycling pooled storage when a returned
// buffer is large enough.
func (w *Workspace) Get(r, c int) *Dense {
	d := w.GetUninit(r, c)
	zeroFloats(d.data)
	return d
}

// GetUninit returns an r×c matrix whose contents are unspecified — for
// destinations that are fully overwritten, where zeroing would be waste.
func (w *Workspace) GetUninit(r, c int) *Dense {
	if w == nil {
		return New(r, c)
	}
	need := r * c
	// Best fit: the smallest pooled buffer with enough capacity, the most
	// recently returned (still cache-warm) among equals. Handing a small
	// request the first large buffer found would leave the next large
	// request of the same iteration to allocate.
	best := -1
	for i := len(w.free) - 1; i >= 0; i-- {
		if cp := cap(w.free[i].data); cp >= need && (best < 0 || cp < cap(w.free[best].data)) {
			best = i
		}
	}
	if best < 0 {
		return New(r, c)
	}
	d := w.free[best]
	w.free[best] = w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	d.rows, d.cols = r, c
	d.data = d.data[:need]
	return d
}

// maxPoolEntries bounds each of the workspace free lists. Hot paths also
// hand the pool matrices that originated elsewhere (e.g. communicator-
// allocated broadcast results), which would otherwise accumulate one entry
// per iteration forever; beyond the cap — far above any steady-state
// working set — the smallest pooled buffer is evicted instead.
const maxPoolEntries = 64

// Put returns a matrix to the pool for reuse. The caller must not use m
// afterwards: its storage will back a future Get. Putting nil is a no-op.
func (w *Workspace) Put(m *Dense) {
	if w == nil || m == nil || cap(m.data) == 0 {
		return
	}
	if len(w.free) >= maxPoolEntries {
		small := 0
		for i, d := range w.free {
			if cap(d.data) < cap(w.free[small].data) {
				small = i
			}
		}
		if cap(w.free[small].data) >= cap(m.data) {
			return // incoming buffer is the smallest; drop it
		}
		w.free[small] = m
		return
	}
	w.free = append(w.free, m)
}

// GetFloats returns a zeroed float slice of length n from the pool.
func (w *Workspace) GetFloats(n int) []float64 {
	if w != nil {
		for i := len(w.floats) - 1; i >= 0; i-- {
			s := w.floats[i]
			if cap(s) < n {
				continue
			}
			w.floats[i] = w.floats[len(w.floats)-1]
			w.floats = w.floats[:len(w.floats)-1]
			s = s[:n]
			zeroFloats(s)
			return s
		}
	}
	return make([]float64, n)
}

// PutFloats returns a slice obtained from GetFloats to the pool.
func (w *Workspace) PutFloats(s []float64) {
	if w == nil || cap(s) == 0 || len(w.floats) >= maxPoolEntries {
		return
	}
	w.floats = append(w.floats, s)
}

// GetInts returns a zeroed int slice of length n from the pool.
func (w *Workspace) GetInts(n int) []int {
	if w != nil {
		for i := len(w.ints) - 1; i >= 0; i-- {
			s := w.ints[i]
			if cap(s) < n {
				continue
			}
			w.ints[i] = w.ints[len(w.ints)-1]
			w.ints = w.ints[:len(w.ints)-1]
			s = s[:n]
			for j := range s {
				s[j] = 0
			}
			return s
		}
	}
	return make([]int, n)
}

// PutInts returns a slice obtained from GetInts to the pool.
func (w *Workspace) PutInts(s []int) {
	if w == nil || cap(s) == 0 || len(w.ints) >= maxPoolEntries {
		return
	}
	w.ints = append(w.ints, s)
}

// ViewRows returns a header viewing rows [r0,r1) of m, as Dense.ViewRows
// does, drawn from a pool of recycled headers: a view passed to a product
// escapes to the heap, so a hot path that slices its operands with stack
// headers would allocate once per product. Return the view with PutView,
// never Put — it does not own its storage.
func (w *Workspace) ViewRows(m *Dense, r0, r1 int) *Dense {
	if w == nil {
		v := new(Dense)
		m.ViewRows(r0, r1, v)
		return v
	}
	if len(w.views) == 0 {
		// Headers come in blocks, so a cold workspace pays one allocation
		// for the few views a product sequence holds at once.
		block := make([]Dense, viewBlock)
		for i := range block {
			w.views = append(w.views, &block[i])
		}
	}
	v := w.views[len(w.views)-1]
	w.views = w.views[:len(w.views)-1]
	m.ViewRows(r0, r1, v)
	return v
}

// viewBlock is how many view headers ViewRows allocates at a time.
const viewBlock = 4

// PutView returns a header obtained from ViewRows to the pool.
func (w *Workspace) PutView(v *Dense) {
	if w == nil || v == nil || len(w.views) >= maxPoolEntries {
		return
	}
	*v = Dense{}
	w.views = append(w.views, v)
}

// RowViews returns the rows of m as slices aliasing its storage, in a
// slice drawn from the pool — for row-indexed routines (the Golub–Reinsch
// SVD) that would otherwise allocate the slice of rows on every call.
// Return it with PutRowViews.
func (w *Workspace) RowViews(m *Dense) [][]float64 {
	var v [][]float64
	if w != nil {
		// Best fit, as in GetUninit, so U's rows never take the set V's
		// rows need.
		best := -1
		for i, s := range w.rowSet {
			if cap(s) >= m.rows && (best < 0 || cap(s) < cap(w.rowSet[best])) {
				best = i
			}
		}
		if best >= 0 {
			v = w.rowSet[best][:m.rows]
			w.rowSet[best] = w.rowSet[len(w.rowSet)-1]
			w.rowSet = w.rowSet[:len(w.rowSet)-1]
		}
	}
	if v == nil {
		v = make([][]float64, m.rows)
	}
	for i := range v {
		v[i] = m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
	}
	return v
}

// PutRowViews returns a slice obtained from RowViews to the pool.
func (w *Workspace) PutRowViews(v [][]float64) {
	if w == nil || cap(v) == 0 || len(w.rowSet) >= maxPoolEntries {
		return
	}
	clear(v)
	w.rowSet = append(w.rowSet, v)
}
