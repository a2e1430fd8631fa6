package launch

import (
	"bytes"
	"testing"

	"goparsvd/internal/mat"
)

// BenchmarkSessionPushDecode is a worker's steady-state PUSH decode at the
// fit-distributed shape: one rank's 2048×16 block of a 4096-row batch,
// read from the stream straight into one reused block. It allocates
// nothing.
func BenchmarkSessionPushDecode(b *testing.B) {
	block := mat.New(2048, 16)
	for i := range block.RawData() {
		block.RawData()[i] = float64(i)
	}
	body := blockBody(block)
	r := bytes.NewReader(body)
	var dst mat.Dense
	scratch := make([]byte, blockScratch)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		if err := mat.ReadBlockExact(r, len(body), &dst, scratch); err != nil {
			b.Fatal(err)
		}
	}
}
