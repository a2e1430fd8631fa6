// Package tsqr implements the distributed QR factorization of a
// tall-and-skinny matrix whose rows are partitioned across MPI ranks: the
// paper's Listing 4. Each rank factors its block locally, rank 0 gathers
// the stacked R factors and factors them again, and the Q-correction
// blocks are scattered back. One communication round; the root does
// O(P·n²) work and receives O(P·n²) data.
//
// R is normalized to a non-negative diagonal — the principled version of
// the paper's `qglobal = -qglobal` consistency trick — so the factors match
// SerialQR directly, not just up to sign.
//
// The factorization speaks only to *mpi.Comm, so it is transport-agnostic:
// the same gather/correction exchange runs over the in-process channel
// fabric and over the multi-process TCP mesh (internal/mpi/tcptransport),
// and tcptransport's conformance tests pin it to bit-identical factors
// across the two.
package tsqr

import (
	"fmt"

	"goparsvd/internal/linalg"
	"goparsvd/internal/mat"
	"goparsvd/internal/mpi"
)

// tagQBlock is the point-to-point tag of the R-factor gather; each rank's
// Q-correction block travels on tagQBlock+rank, the paper's Listing 4
// convention of destination-dependent tags. 2¹⁶ keeps the block clear of
// small user tags for any world the TCP transport can open; both fabrics
// carry tags as full integers.
const tagQBlock = 1 << 16

// GatherQRWith computes the thin QR factorization of the row-distributed
// matrix A = [A_0; A_1; …; A_{P−1}], where a is this rank's block (m_i×n).
// It returns this rank's block of Q (m_i×t) and the global R factor (t×n,
// t = min(M, n) for M global rows), which is valid on rank 0 only (pass it
// through c.BcastMatrixInto if every rank needs it). Every temporary, the
// factors that cross rank boundaries included, draws from ws (nil
// allocates), so each rank of a streaming update reuses its buffers across
// batches. The local Q is never formed: qlocal is GatherQRFactor's
// implicit factor applied to this rank's correction block. It panics where
// GatherQRFactor returns an error.
func GatherQRWith(ws *mat.Workspace, c *mpi.Comm, a *mat.Dense) (qlocal, r *mat.Dense) {
	m, n := a.Dims()
	at := ws.GetUninit(n, m)
	a.TInto(at)
	f, qc, r, err := GatherQRFactor(ws, c, at)
	if err != nil {
		panic(err)
	}
	qlocal = ws.GetUninit(m, qc.Cols())
	f.MulQInto(ws, qlocal, qc)
	f.Release(ws)
	ws.Put(qc)
	ws.Put(at)
	return qlocal, r
}

// GatherQRFactor is GatherQRWith leaving this rank's block of Q implicit, for
// callers that only ever multiply it by a small matrix. at holds this
// rank's block column by column (the n×m_i matrix A_iᵀ) and is factored in
// place into f; qc is this rank's t_i×t block of the Q-correction
// (t_i = min(m_i, n), t = min(M, n) for M global rows), so the rank's
// block of Q is f·[qc; 0] — f.MulQInto applies it to any product qc·X
// without forming either. r is the global t×n R (CombineR), valid on rank
// 0 only. Received factors land in ws storage and the messages' payloads
// go back to the communicator, so a steady update allocates nothing. The caller releases f and returns at,
// qc and r to ws. A failed collective and a peer R factor of another width
// or more than n rows are errors, after which ws may hold temporaries
// never put back: the caller's engine is dead.
func GatherQRFactor(ws *mat.Workspace, c *mpi.Comm, at *mat.Dense) (f linalg.QRFactor, qc, r *mat.Dense, err error) {
	n := at.Rows()
	f, rl := linalg.FactorQR(ws, at) // rl is min(m_i,n)×n

	if c.Rank() != 0 {
		if err := c.SendMatrix(0, tagQBlock, rl); err != nil {
			return f, nil, nil, err
		}
		qc = ws.GetUninit(rl.Rows(), n)
		if err := c.RecvMatrixInto(0, tagQBlock+c.Rank(), qc); err != nil {
			return f, nil, nil, err
		}
		ws.Put(rl)
		return f, qc, nil, nil
	}

	// Rank 0: gather the R factors (its own plus one per peer, in rank
	// order) straight into one vertical stack. Each has at most n rows,
	// so P·n rows hold them all and each peer's lands in place.
	size := c.Size()
	stack := ws.GetUninit(size*n, n)
	copy(stack.RawData(), rl.RawData())
	var rowsArr [8]int // each rank's R rows, without a heap slice for small worlds
	rows := append(rowsArr[:0], rl.Rows())
	off := rl.Rows()
	for src := 1; src < size; src++ {
		v := ws.ViewRows(stack, off, size*n)
		if err := c.RecvMatrixInto(src, tagQBlock, v); err != nil {
			return f, nil, nil, err
		}
		if v.Cols() != n || v.Rows() > n {
			return f, nil, nil, fmt.Errorf("tsqr: rank %d sent a %dx%d R factor, want at most %dx%d",
				src, v.Rows(), v.Cols(), n, n)
		}
		rows = append(rows, v.Rows())
		off += v.Rows()
		ws.PutView(v)
	}
	rGlobal := ws.ViewRows(stack, 0, off)
	qGlobal, rFinal := CombineR(ws, rGlobal)
	ws.PutView(rGlobal)
	ws.Put(stack)

	// Slice qGlobal back into per-rank correction blocks, matching each
	// rank's local R row count, and send them out.
	off = rows[0]
	for dst := 1; dst < size; dst++ {
		v := ws.ViewRows(qGlobal, off, off+rows[dst])
		if err := c.SendMatrix(dst, tagQBlock+dst, v); err != nil {
			return f, nil, nil, err
		}
		ws.PutView(v)
		off += rows[dst]
	}
	qc = ws.GetUninit(rows[0], qGlobal.Cols())
	copy(qc.RawData(), qGlobal.RawData()) // rank 0's rows lead qGlobal
	ws.Put(rl)
	ws.Put(qGlobal)
	return f, qc, rFinal, nil
}

// CombineR is the root's step of the TSQR: the thin QR of the vertical
// stack of every block's R factor, in block order, with R's diagonal made
// non-negative. q's rows, sliced as the stack's were, are the blocks' Q
// corrections; r is the global R. A stack with fewer rows than columns
// (fewer global rows than the matrix is wide) gives an s×s q and an s×n r,
// as the thin QR of the whole matrix would. Both factors come from ws.
func CombineR(ws *mat.Workspace, stack *mat.Dense) (q, r *mat.Dense) {
	q, r = linalg.QRWith(ws, stack)
	linalg.NormalizeQRSigns(q, r)
	return q, r
}

// SerialQR is the reference factorization the distributed QR must
// reproduce: a plain thin QR with the same non-negative-diagonal sign
// convention.
func SerialQR(a *mat.Dense) (q, r *mat.Dense) {
	q, r = linalg.QR(a)
	linalg.NormalizeQRSigns(q, r)
	return q, r
}
