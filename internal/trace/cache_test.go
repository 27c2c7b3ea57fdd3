package trace

import (
	"sync"
	"testing"
)

var (
	sinkTrace  *Trace
	sinkTraces []*Trace
	sinkBytes  uint64
)

// TestLookupsAllocateNothing pins the cost of the shared traces: once
// built, ByName and Footprint allocate nothing and All allocates only the
// slice it returns.
func TestLookupsAllocateNothing(t *testing.T) {
	names := []string{"tar", "untar", "find", "sqlite", "leveldb", "postmark"}
	byName := func() {
		for _, n := range names {
			sinkTrace = ByName(n)
		}
	}
	footprint := func() {
		for _, n := range names {
			tr := ByName(n)
			sinkBytes += tr.Footprint(4<<10) + tr.Footprint(1<<20)
		}
	}
	all := func() { sinkTraces = All() }

	for _, tc := range []struct {
		name string
		fn   func()
		max  float64
	}{
		{"ByName", byName, 0},
		{"Footprint", footprint, 0},
		{"All", all, 1},
	} {
		tc.fn() // warm: build the traces and their footprints
		if got := testing.AllocsPerRun(20, tc.fn); got > tc.max {
			t.Errorf("%s: %.1f allocs per run, want <= %.0f", tc.name, got, tc.max)
		}
	}
}

// pinnedExtents and pinnedFootprint are Footprint values produced by the
// original implementation, which walked the trace with three maps on every
// call. The odd extent (3 MiB + 1) makes every rounding visible.
var (
	pinnedExtents   = [4]uint64{4 * KiB, 64 * KiB, 1 * MiB, 3*MiB + 1}
	pinnedFootprint = map[string][4]uint64{
		"tar":      {8130560, 8192000, 11534336, 25165832},
		"untar":    {8130560, 8192000, 11534336, 25165832},
		"find":     {2396160, 6881280, 78643200, 232783946},
		"sqlite":   {11542528, 11665408, 13631488, 22020103},
		"leveldb":  {5513216, 5636096, 8388608, 15728645},
		"postmark": {598016, 1507328, 20971520, 62914580},
	}
)

func TestFootprintPinned(t *testing.T) {
	for _, tr := range All() {
		for i, ext := range pinnedExtents {
			if got, want := tr.Footprint(ext), pinnedFootprint[tr.Name][i]; got != want {
				t.Errorf("%s.Footprint(%d) = %d, want %d", tr.Name, ext, got, want)
			}
		}
	}
}

// TestCallersOwnTheirCopies checks that reordering the slice All returns
// disturbs neither ByName nor a later All, and that the generators return
// fresh copies rather than the shared instances.
func TestCallersOwnTheirCopies(t *testing.T) {
	mine := All()
	mine[0], mine[5] = mine[5], mine[0]
	if got := All()[0].Name; got != "tar" {
		t.Fatalf("All()[0] = %s after a caller reordered its slice, want tar", got)
	}
	if ByName("tar") != mine[5] {
		t.Fatal("All and ByName hand out different tar instances")
	}
	if Tar() == ByName("tar") {
		t.Fatal("Tar returned the shared instance")
	}
}

// TestConcurrentLookups has 8 goroutines race on the first build of the
// shared traces and on the first Footprint of each trace, shared and
// fresh, with mixed extents. Run it under -race.
func TestConcurrentLookups(t *testing.T) {
	shared = sync.OnceValue(buildAll) // start from an unbuilt cache
	fresh := PostMark()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 48; i++ {
				all := All()
				tr := ByName(all[(w+i)%len(all)].Name)
				if tr != all[(w+i)%len(all)] {
					errs <- "ByName and All disagree"
					return
				}
				ext := (w + i) % len(pinnedExtents)
				if tr.Footprint(pinnedExtents[ext]) != pinnedFootprint[tr.Name][ext] ||
					fresh.Footprint(pinnedExtents[ext]) != pinnedFootprint["postmark"][ext] {
					errs <- "footprint differs from the pinned value"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func BenchmarkByName(b *testing.B) {
	b.ReportAllocs()
	ByName("postmark")
	for i := 0; i < b.N; i++ {
		sinkTrace = ByName("postmark")
	}
}

func BenchmarkFootprint(b *testing.B) {
	b.ReportAllocs()
	tr := ByName("postmark")
	tr.Footprint(1 * MiB)
	for i := 0; i < b.N; i++ {
		sinkBytes += tr.Footprint(1 * MiB)
	}
}
