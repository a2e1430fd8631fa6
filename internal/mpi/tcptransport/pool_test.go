package tcptransport

import (
	"testing"

	"goparsvd/internal/mpi"
)

// TestAbortDropsRecycledPayloads: a payload the consumer recycles is
// pooled for the link's reader, and once the endpoint aborts no recycled
// payload stays pooled — neither those held then nor those handed back
// later.
func TestAbortDropsRecycledPayloads(t *testing.T) {
	ts, err := LocalWorld(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts[0].Close()
	if err := ts[0].Send(0, 1, mpi.Message{Tag: 1, Data: make([]float64, 16), Rows: -1}); err != nil {
		t.Fatal(err)
	}
	m, err := ts[1].Recv(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool := &ts[1].inboxes[0].pool
	ts[1].Recycle(1, 0, m.Data)
	if got := pool.Get(16); cap(got) < 16 {
		t.Fatal("a recycled payload was not pooled")
	} else {
		pool.Put(got)
	}
	ts[1].Abort()
	ts[1].Recycle(1, 0, make([]float64, 16))
	if pool.Get(1) != nil {
		t.Fatal("a recycled payload outlived the abort")
	}
}
