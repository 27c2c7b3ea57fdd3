package dtu

import (
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
)

// BenchmarkDTURoundTrip measures one request/reply exchange between two
// DTUs: Send, the server's Wait and Reply, the client's Wait and Ack, with
// the NoC deliveries and proc handoffs in between. It allocates the two
// Messages per op (TestRoundTripAllocs gates that).
//
// Run with:
//
//	go test -bench . -benchmem ./internal/dtu
func BenchmarkDTURoundTrip(b *testing.B) {
	e := sim.NewEngine()
	defer e.Kill()
	f := NewFabric(e, noc.New(e, noc.DefaultConfig(4)))
	for i := 0; i < 4; i++ {
		f.Add(i, 0)
	}
	trip := roundTrip(e, f.DTU(0), f.DTU(3))
	trip()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
}
