package launch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"goparsvd/internal/mat"
	"goparsvd/internal/scaling"
)

// HashModes fingerprints an M×K mode matrix for exact cross-process
// comparison: SHA-256 over the dims plus the row-major float64 payload
// rendered as IEEE-754 little-endian bits. Both the worker (reporting) and
// the launcher (verifying against the in-process reference) use this, so a
// single flipped mantissa bit anywhere in the mode matrix fails the match.
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

// SingularBits converts singular values to their exact bit patterns for
// the result line.
func SingularBits(s []float64) []uint64 {
	out := make([]uint64, len(s))
	for i, v := range s {
		out[i] = math.Float64bits(v)
	}
	return out
}

// FormatResult renders one rank's PARSVD-RESULT stdout line. modes may be
// nil (non-root ranks).
func FormatResult(rank int, singular []float64, modes *mat.Dense, stats scaling.RankStats) (string, error) {
	rr := RankResult{
		Rank:         rank,
		SingularBits: SingularBits(singular),
		Stats:        stats,
	}
	if modes != nil {
		rr.ModesSHA256 = HashModes(modes)
	}
	b, err := json.Marshal(rr)
	if err != nil {
		return "", err
	}
	return ResultPrefix + " " + string(b), nil
}
