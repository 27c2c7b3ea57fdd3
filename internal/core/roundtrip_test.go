package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cap"
	"repro/internal/ddl"
	"repro/internal/dtu"
	"repro/internal/fault"
	"repro/internal/sim"
)

// benchHeld is how many obtained capabilities a capBench caller holds before
// the benchmark revokes them.
const benchHeld = 256

// capBench is a machine for driving one capability operation at a time: an
// owner VPE holding a memory capability, and a caller VPE whose program
// parks between operations. do wakes the caller for one operation and runs
// the machine until it is idle again, so a warmed machine's allocations per
// do are those of the operation alone.
type capBench struct {
	s      *System
	caller *sim.Proc
	op     func(v *VPE, p *sim.Proc)
	owner  *VPE
	sel    cap.Selector   // the owner's memory capability
	got    []cap.Selector // capabilities the caller obtained and still holds
}

// newCapBench builds the machine with the caller on the owner's kernel
// (kernels == 1) or on another kernel (kernels == 2, one user PE each).
func newCapBench(tb testing.TB, kernels int) *capBench {
	tb.Helper()
	s := MustNew(Config{Kernels: kernels, UserPEs: 2})
	tb.Cleanup(s.Close)
	b := &capBench{s: s, got: make([]cap.Selector, 0, benchHeld)}
	var err error
	b.owner, err = s.SpawnOn(kernels, "owner", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			panic(err)
		}
		b.sel = sel
	})
	if err != nil {
		tb.Fatal(err)
	}
	caller, err := s.SpawnOn(kernels+1, "caller", func(v *VPE, p *sim.Proc) {
		b.caller = p
		for {
			p.Park()
			b.op(v, p)
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	s.Run()
	if b.caller == nil {
		tb.Fatal("caller did not start")
	}
	if want := kernels - 1; s.KernelOfPE(caller.PE).ID() != want || s.KernelOfPE(b.owner.PE).ID() != 0 {
		tb.Fatalf("caller on kernel %d, owner on kernel %d; want %d and 0",
			s.KernelOfPE(caller.PE).ID(), s.KernelOfPE(b.owner.PE).ID(), want)
	}
	return b
}

func (b *capBench) do(op func(v *VPE, p *sim.Proc)) {
	b.op = op
	b.caller.Wake()
	b.s.Run()
}

func (b *capBench) noop(v *VPE, p *sim.Proc) { v.Noop(p) }

func (b *capBench) obtain(v *VPE, p *sim.Proc) {
	sel, err := v.ObtainFrom(p, b.owner.ID, b.sel)
	if err != nil {
		panic(err)
	}
	b.got = append(b.got, sel)
}

// revokeAll revokes every capability the caller obtained, keeping the
// machine's capability tables at a steady size.
func (b *capBench) revokeAll(v *VPE, p *sim.Proc) {
	for _, sel := range b.got {
		if err := v.Revoke(p, sel); err != nil {
			panic(err)
		}
	}
	b.got = b.got[:0]
}

// TestCapRoundTripAllocs gates the allocation-lean capability round trips:
// once a machine is warm, each operation allocates only the objects its
// model needs — the two DTU Messages of the syscall, the consent query
// (askVPE's vpeAsk), and for a spanning operation the IKC request, its
// reply, the reply's Future and the in-flight obtain record. The syscall
// frame, the query's legs, the IKC deliveries, pool jobs and credit
// returns allocate nothing. A lower count is progress: pin it here.
func TestCapRoundTripAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kernels int
		obtain  bool
		want    float64
		what    string
	}{
		{"SyscallNoop", 1, false, 2, "the request and reply Messages"},
		{"ObtainLocal", 1, true, 3, "two Messages and the consent query"},
		{"ObtainSpanning", 2, true, 7, "two Messages, the consent query, the IKC request, reply and Future, and the in-flight obtain record"},
	} {
		b := newCapBench(t, tc.kernels)
		op, revokeAll := b.noop, b.revokeAll
		if tc.obtain {
			op = b.obtain
		}
		step := func() { b.do(op) }
		for i := 0; i < 32; i++ {
			step() // warm: grow event lanes, wait queues and pools
		}
		b.do(revokeAll)
		if got := testing.AllocsPerRun(50, step); got != tc.want {
			t.Errorf("%s: %.1f allocs per operation, want %.0f (%s)", tc.name, got, tc.want, tc.what)
		}
		b.do(revokeAll)
		checkAllInvariants(t, b.s)
		checkNoLeaks(t, b.s)
	}
}

// benchCapOp measures one capability operation per iteration on a warmed
// machine. Obtained capabilities are revoked outside the timer every
// benchHeld operations, so the tables stay at a steady size.
func benchCapOp(b *testing.B, kernels int, obtain bool) {
	cb := newCapBench(b, kernels)
	op, revokeAll := cb.noop, cb.revokeAll
	if obtain {
		op = cb.obtain
	}
	for i := 0; i < 32; i++ {
		cb.do(op)
	}
	cb.do(revokeAll)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.do(op)
		if len(cb.got) == benchHeld {
			b.StopTimer()
			cb.do(revokeAll)
			b.StartTimer()
		}
	}
}

// BenchmarkSyscallNoop measures one bare syscall round trip: the VPE's
// request, the kernel's dispatch and reply, and the proc handoffs between
// them. TestCapRoundTripAllocs gates its allocations.
//
// Run with:
//
//	go test -bench . -benchmem ./internal/core
func BenchmarkSyscallNoop(b *testing.B) { benchCapOp(b, 1, false) }

// BenchmarkObtainLocal measures a group-internal obtain: the syscall, the
// consent query to the owner VPE and the child's insertion.
func BenchmarkObtainLocal(b *testing.B) { benchCapOp(b, 1, true) }

// BenchmarkObtainSpanning measures a group-spanning obtain: the syscall,
// the IKC request and reply between the two kernels, and the consent query
// at the owner's kernel.
func BenchmarkObtainSpanning(b *testing.B) { benchCapOp(b, 2, true) }

// TestSyscallFrameMixedSequence drives one VPE through a long seeded mix of
// syscalls — allocations, derives (some invalid), local and spanning
// obtains and delegates, revokes and no-ops — while a neighbour VPE on the
// same kernel issues syscalls of its own, and checks after every call that
// the reply answers that call and no other: each reused syscall frame must
// carry exactly its own request and reply.
func TestSyscallFrameMixedSequence(t *testing.T) {
	s := newTestSystem(t, 2, 6)
	k0 := s.Kernel(0)
	var local, remote []int // user PEs on kernel 0 and kernel 1
	for _, pe := range s.UserPEs() {
		if s.KernelOfPE(pe) == k0 {
			local = append(local, pe)
		} else {
			remote = append(remote, pe)
		}
	}
	if len(local) < 3 || len(remote) < 1 {
		t.Fatalf("PE groups %v / %v: need three PEs on kernel 0, one on kernel 1", local, remote)
	}

	// Peers each hold one memory capability, and park.
	peerSel := map[int]cap.Selector{}
	spawnPeer := func(pe int) *VPE {
		v, err := s.SpawnOn(pe, fmt.Sprintf("peer%d", pe), func(v *VPE, p *sim.Proc) {
			sel, err := v.AllocMem(p, 1024, dtu.PermRW)
			if err != nil {
				t.Errorf("peer alloc: %v", err)
			}
			peerSel[v.ID] = sel
			p.Park()
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	localPeer, remotePeer := spawnPeer(local[1]), spawnPeer(remote[0])
	s.Run()

	// A noisy neighbour on the same kernel keeps the syscall pool busy
	// with other VPEs' frames while the subject's calls are in flight.
	noise, err := s.SpawnOn(local[2], "noise", func(v *VPE, p *sim.Proc) {
		for i := 0; i < 200; i++ {
			sel, err := v.AllocMem(p, uint64(64+i), dtu.PermR)
			if err != nil {
				t.Errorf("noise alloc: %v", err)
				return
			}
			if err := v.Revoke(p, sel); err != nil {
				t.Errorf("noise revoke: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	const steps = 400
	rng := rand.New(rand.NewSource(1))
	calls := map[sysKind]int{}
	_, err = s.SpawnOn(local[0], "subject", func(v *VPE, p *sim.Proc) {
		type memCap struct {
			sel  cap.Selector
			size uint64
		}
		var mine []memCap
		lookup := func(vpe int, sel cap.Selector) *cap.Capability {
			return s.KernelOfPE(s.VPEs()[vpe].PE).store.LookupSel(vpe, sel)
		}
		fail := func(step int, req sysRequest, rep sysReply, why string) {
			t.Errorf("step %d: %s: reply %+v does not answer request %+v", step, why, rep, req)
		}
		for step := 0; step < steps; step++ {
			var req sysRequest
			switch r := rng.Intn(8); {
			case r == 0 || len(mine) == 0:
				req = sysRequest{Kind: sysAllocMem, Size: uint64(256 + rng.Intn(4096)), Perm: dtu.PermRW}
			case r == 1:
				req = sysRequest{Kind: sysNoop}
			case r == 2:
				parent := mine[rng.Intn(len(mine))]
				size := uint64(1 + rng.Intn(int(parent.size)))
				if rng.Intn(4) == 0 {
					size = parent.size + 1 // out of range: ErrBadArgs
				}
				req = sysRequest{Kind: sysDeriveMem, Sel: parent.sel, Off: 0, Size: size, Perm: dtu.PermR}
			case r == 3:
				peer := localPeer
				if rng.Intn(2) == 0 {
					peer = remotePeer
				}
				req = sysRequest{Kind: sysObtainFrom, TargetVPE: peer.ID, TargetSel: peerSel[peer.ID]}
			case r == 4:
				peer := localPeer
				if rng.Intn(2) == 0 {
					peer = remotePeer
				}
				req = sysRequest{Kind: sysDelegateTo, TargetVPE: peer.ID, Sel: mine[rng.Intn(len(mine))].sel}
			case r == 5:
				req = sysRequest{Kind: sysObtainFrom, TargetVPE: localPeer.ID, TargetSel: 1 << 20} // no such capability
			default:
				req = sysRequest{Kind: sysRevoke, Sel: mine[rng.Intn(len(mine))].sel}
			}
			calls[req.Kind]++
			var src *cap.Capability
			switch req.Kind {
			case sysObtainFrom:
				src = lookup(req.TargetVPE, req.TargetSel)
			case sysDelegateTo:
				src = lookup(v.ID, req.Sel)
			}
			var srcKey ddl.Key
			if src != nil {
				srcKey = src.Key
			}

			rep := v.syscall(p, req)

			switch req.Kind {
			case sysNoop:
				if rep != (sysReply{}) {
					fail(step, req, rep, "no-op")
				}
			case sysAllocMem:
				c := lookup(v.ID, rep.Sel)
				if rep.Err != OK || c == nil || c.Object.(*cap.MemObject).Size != req.Size {
					fail(step, req, rep, "allocation")
				}
				mine = append(mine, memCap{rep.Sel, req.Size})
			case sysDeriveMem:
				parent := lookup(v.ID, req.Sel)
				if req.Size > parent.Object.(*cap.MemObject).Size {
					if rep != (sysReply{Err: ErrBadArgs}) {
						fail(step, req, rep, "invalid derive")
					}
					break
				}
				c := lookup(v.ID, rep.Sel)
				if rep.Err != OK || c == nil || c.Parent != parent.Key || c.Object.(*cap.MemObject).Size != req.Size {
					fail(step, req, rep, "derive")
				}
				mine = append(mine, memCap{rep.Sel, req.Size})
			case sysObtainFrom:
				if src == nil {
					if rep != (sysReply{Err: ErrNoSuchCap}) {
						fail(step, req, rep, "obtain of a missing capability")
					}
					break
				}
				c := lookup(v.ID, rep.Sel)
				if rep.Err != OK || c == nil || c.Parent != srcKey {
					fail(step, req, rep, "obtain")
					break
				}
				mine = append(mine, memCap{rep.Sel, c.Object.(*cap.MemObject).Size})
			case sysDelegateTo:
				if rep.Err != OK {
					fail(step, req, rep, "delegate")
				}
				if req.TargetVPE == localPeer.ID {
					if c := lookup(req.TargetVPE, rep.Sel); c == nil || c.Parent != srcKey {
						fail(step, req, rep, "local delegate")
					}
				} else if rep.Sel != 0 {
					fail(step, req, rep, "spanning delegate") // the child's selector stays remote
				}
			case sysRevoke:
				if rep != (sysReply{}) || lookup(v.ID, req.Sel) != nil {
					fail(step, req, rep, "revoke")
				}
				// The revoke took the subtree with it: keep what survives.
				live := mine[:0]
				for _, m := range mine {
					if lookup(v.ID, m.sel) != nil {
						live = append(live, m)
					}
				}
				mine = live
			}
			if t.Failed() {
				return
			}
		}
		if rep := v.syscall(p, sysRequest{Kind: sysExit}); rep != (sysReply{}) {
			t.Errorf("exit: reply %+v, want the zero reply", rep)
		}
		v.exited = true
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	for _, kind := range []sysKind{sysAllocMem, sysNoop, sysDeriveMem, sysObtainFrom, sysDelegateTo, sysRevoke} {
		if calls[kind] == 0 {
			t.Errorf("the sequence issued no %s call", kind)
		}
	}
	if noise.Syscalls() != 400 {
		t.Errorf("neighbour issued %d syscalls, want 400", noise.Syscalls())
	}
	checkAllInvariants(t, s)
	checkNoLeaks(t, s)
}

// TestSyscallFrameReusePanics: a VPE has one syscall frame, so a second
// proc issuing a syscall for a VPE whose call is still outstanding is a
// programming error, reported by a panic naming both calls.
func TestSyscallFrameReusePanics(t *testing.T) {
	s := newTestSystem(t, 1, 2)
	_, err := s.Spawn("app", func(v *VPE, p *sim.Proc) {
		s.Eng.Spawn("intruder", func(p *sim.Proc) { v.Noop(p) })
		v.AllocMem(p, 64, dtu.PermRW) // outstanding while the intruder runs
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		msg := fmt.Sprint(r)
		if r == nil || !strings.Contains(msg, "issued syscall noop while its allocmem call is outstanding") {
			t.Fatalf("recovered %q, want the frame-reuse panic", msg)
		}
	}()
	s.Run()
}

// TestSyscallsUnaffectedByKernelLinkFaults: the syscall frame relies on the
// fault injector leaving VPE↔kernel links alone. With every kernel↔kernel
// message dropped and duplicated, group-internal syscalls on both kernels
// still get exactly one correct reply per call.
func TestSyscallsUnaffectedByKernelLinkFaults(t *testing.T) {
	s := MustNew(Config{Kernels: 2, UserPEs: 2, Faults: &fault.Plan{Seed: 1, Drop: 1, Dup: 1}})
	t.Cleanup(s.Close)
	const rounds = 50
	for _, pe := range s.UserPEs() {
		_, err := s.SpawnOn(pe, "app", func(v *VPE, p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				v.Noop(p)
				own, err := v.AllocMem(p, uint64(100+i), dtu.PermRW)
				if err != nil {
					t.Errorf("alloc %d: %v", i, err)
					return
				}
				child, err := v.DeriveMem(p, own, 0, 10, dtu.PermR)
				if c := v.kernel.store.LookupSel(v.ID, child); err != nil || c == nil || c.Parent != v.kernel.store.LookupSel(v.ID, own).Key {
					t.Errorf("derive %d: %v", i, err)
					return
				}
				if err := v.Revoke(p, own); err != nil {
					t.Errorf("revoke %d: %v", i, err)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	want := uint64(len(s.UserPEs()) * rounds * 4)
	if got := s.TotalStats().Syscalls; got != want {
		t.Errorf("kernels handled %d syscalls, want %d: a syscall was lost or duplicated", got, want)
	}
	if st := s.FaultStats(); st.Inspected != 0 {
		t.Errorf("injector inspected %d kernel-link messages, want 0", st.Inspected)
	}
	checkNoLeaks(t, s)
}
