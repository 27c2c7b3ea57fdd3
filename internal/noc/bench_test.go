package noc

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkNoCSend measures one message through the mesh, delivery event
// included: sends go out in batches of 1024 over a spread of (src, dst)
// pairs, then the engine drains them. A warmed network allocates nothing
// per message.
//
// Run with:
//
//	go test -bench . -benchmem ./internal/noc
func BenchmarkNoCSend(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	n := New(e, DefaultConfig(64))
	nop := func() {}
	const batch = 1024
	for done := 0; done < b.N; done += batch {
		for j := 0; j < batch; j++ {
			n.Send(j%64, (j*7+3)%64, 64, nop)
		}
		e.Run()
	}
}
