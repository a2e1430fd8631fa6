package launch

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
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
	r, c := m.Dims()
	return hashModes(r, c, m.RawData(), c, 1)
}

// HashModeRows is HashModes of the modes held mode-major, as the K×M
// matrix Uᵀ: it hashes the same row-major M×K bytes, transposing while it
// hashes, so HashModeRows(u.T()) == HashModes(u) and no M×K copy is built.
func HashModeRows(rows *mat.Dense) string {
	k, m := rows.Dims()
	return hashModes(m, k, rows.RawData(), 1, m)
}

// hashModes digests the r×c matrix whose (i, j) entry is d[i*rs+j*cs],
// rendering it row-major through one bounded chunk of bytes.
func hashModes(r, c int, d []float64, rs, cs int) string {
	const chunk = 32 << 10
	h := sha256.New()
	buf := make([]byte, 0, chunk+8*c)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d[i*rs+j*cs]))
		}
		if len(buf) >= chunk {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return fmt.Sprintf("%x", h.Sum(nil))
}
