package launch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"goparsvd/internal/mat"
)

// HashModes fingerprints an M×K mode matrix for exact cross-process
// comparison: SHA-256 over the dims plus the row-major float64 payload
// rendered as IEEE-754 little-endian bits. A session worker reports it for
// the gathered modes (MODES-SHA) and callers compare it against HashModes
// of an in-process run, so a single flipped mantissa bit anywhere in the
// mode matrix fails the match.
func HashModes(m *mat.Dense) string {
	var mh ModesHasher
	r, c := m.Dims()
	mh.begin(r, c)
	mh.rows(r, c, m.RawData(), c, 1)
	return string(mh.end())
}

// HashModeRows is HashModes of the modes held mode-major: the K×M matrix
// Uᵀ, given whole or as column blocks side by side (K×M_0 | K×M_1 | …), as
// core.Parallel.GatherModeRows returns it. It hashes the same row-major
// M×K bytes, transposing while it hashes, so HashModeRows(u.T()) ==
// HashModes(u) and no M×K copy is built.
func HashModeRows(blocks ...*mat.Dense) string {
	var mh ModesHasher
	return string(mh.ModeRows(blocks...))
}

// ModesHasher computes HashModeRows digests through a SHA-256 state, a
// chunk buffer and a digest buffer it keeps across calls, so a process
// that fingerprints its modes again and again (a worker answering
// MODES-SHA) allocates nothing per digest. The zero value is ready to
// use.
type ModesHasher struct {
	h   hash.Hash
	buf []byte
	sum []byte
	hex []byte
}

// hashChunk is how many bytes of the rendered matrix are hashed at a time.
const hashChunk = 32 << 10

// ModeRows returns HashModeRows(blocks...) as hex digits, in storage the
// hasher rewrites on its next call.
func (mh *ModesHasher) ModeRows(blocks ...*mat.Dense) []byte {
	m, k := 0, blocks[0].Rows()
	for _, b := range blocks {
		m += b.Cols()
	}
	mh.begin(m, k)
	for _, b := range blocks {
		mh.rows(b.Cols(), k, b.RawData(), 1, b.Cols())
	}
	return mh.end()
}

// begin starts the digest of an r×c matrix with its dims.
func (mh *ModesHasher) begin(r, c int) {
	if mh.h == nil {
		mh.h = sha256.New()
	} else {
		mh.h.Reset()
	}
	if cap(mh.buf) < hashChunk+8*c {
		mh.buf = make([]byte, 0, hashChunk+8*c)
	}
	mh.buf = binary.LittleEndian.AppendUint64(mh.buf[:0], uint64(r))
	mh.buf = binary.LittleEndian.AppendUint64(mh.buf, uint64(c))
}

// rows renders n rows of c values, row i's entry j being d[i*rs+j*cs].
func (mh *ModesHasher) rows(n, c int, d []float64, rs, cs int) {
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			mh.buf = binary.LittleEndian.AppendUint64(mh.buf, math.Float64bits(d[i*rs+j*cs]))
		}
		if len(mh.buf) >= hashChunk {
			mh.h.Write(mh.buf)
			mh.buf = mh.buf[:0]
		}
	}
}

// end finishes the digest and returns it as hex digits.
func (mh *ModesHasher) end() []byte {
	mh.h.Write(mh.buf)
	mh.sum = mh.h.Sum(mh.sum[:0])
	mh.hex = hex.AppendEncode(mh.hex[:0], mh.sum)
	return mh.hex
}
