package launch

import (
	"bytes"
	"testing"

	"goparsvd/internal/mat"
)

// BenchmarkSessionPushDecode is a worker's steady-state PUSH decode at the
// fit-distributed shape: one rank's 2048×16 block of a 4096-row batch,
// read from the stream and written transposed straight into the 16×2048
// rows of the engine's buffer the update stacks it in (mat.ReadBlockHeader,
// mat.ReadValuesT). It allocates nothing.
func BenchmarkSessionPushDecode(b *testing.B) {
	block := mat.New(2048, 16)
	for i := range block.RawData() {
		block.RawData()[i] = float64(i)
	}
	body := blockBody(block)
	r := bytes.NewReader(body)
	dst := mat.New(16, 2048)
	scratch := make([]byte, blockScratch)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		if _, _, err := mat.ReadBlockHeader(r, len(body), scratch); err != nil {
			b.Fatal(err)
		}
		if err := mat.ReadValuesT(r, dst, scratch); err != nil {
			b.Fatal(err)
		}
	}
}
