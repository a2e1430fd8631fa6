package mpi

import "testing"

// TestBufferPool: Get hands out the smallest pooled buffer that holds the
// request, emptied, or nil when none does; Close drops what the pool holds
// and everything handed to it later; a nil pool holds nothing.
func TestBufferPool(t *testing.T) {
	var p BufferPool
	if p.Get(4) != nil {
		t.Fatal("an empty pool handed out storage")
	}
	big, small := make([]float64, 64), make([]float64, 8)
	p.Put(big)
	p.Put(small)
	if b := p.Get(5); cap(b) != 8 || len(b) != 0 {
		t.Fatalf("Get(5) = len %d cap %d, want the 8-value buffer emptied", len(b), cap(b))
	}
	if b := p.Get(9); cap(b) != 64 {
		t.Fatalf("Get(9) = cap %d, want the 64-value buffer", cap(b))
	}
	if p.Get(1) != nil {
		t.Fatal("a drained pool handed out storage")
	}
	p.Put(big)
	p.Close()
	p.Put(small)
	if p.Get(1) != nil || len(p.free) != 0 {
		t.Fatalf("a closed pool holds %d buffers", len(p.free))
	}
	var nilPool *BufferPool
	nilPool.Put(big)
	if nilPool.Get(1) != nil {
		t.Fatal("a nil pool handed out storage")
	}
}

// TestChanTransportAbortDropsPools: once the in-process fabric aborts, no
// recycled payload stays pooled.
func TestChanTransportAbortDropsPools(t *testing.T) {
	tr := NewChanTransport(2)
	if err := tr.Send(0, 1, Message{Tag: 1, Data: make([]float64, 16), Rows: vectorRows}); err != nil {
		t.Fatal(err)
	}
	m, err := tr.Recv(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Recycle(1, 0, m.Data)
	if len(tr.pools[1][0].free) != 1 {
		t.Fatal("a recycled payload was not pooled")
	}
	tr.Abort()
	tr.Recycle(1, 0, make([]float64, 16))
	if n := len(tr.pools[1][0].free); n != 0 {
		t.Fatalf("%d recycled payloads outlived the abort", n)
	}
}
