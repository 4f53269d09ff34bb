package guestos

import (
	"errors"
	"slices"
	"testing"

	"vdirect/internal/addr"
	"vdirect/internal/mmu"
	"vdirect/internal/pagetable"
	"vdirect/internal/physmem"
	"vdirect/internal/trace"
)

const translateGuestSize = 16 << 20

// translateEnv builds a virtualized machine: guest memory backed 1:1 by
// a nested table, one process with a 1MB demand-paged region, and an
// MMU walking both dimensions. Construction is deterministic, so two
// calls build twins.
func translateEnv(t *testing.T) (*Process, *mmu.MMU, addr.Range) {
	t.Helper()
	host := physmem.New(physmem.Config{Name: "host", Size: 2 * translateGuestSize})
	nPT, err := pagetable.New(host)
	if err != nil {
		t.Fatal(err)
	}
	first, err := host.AllocContiguous(translateGuestSize>>12, 1)
	if err != nil {
		t.Fatal(err)
	}
	for f := uint64(0); f < translateGuestSize>>12; f++ {
		if err := nPT.Map(f<<12, (first+f)<<12, addr.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	k := NewKernel(physmem.New(physmem.Config{Name: "guest", Size: translateGuestSize}), nil)
	p, err := k.CreateProcess("p")
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.MMap(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	m := mmu.New(mmu.Config{})
	m.SetGuestPageTable(p.PT)
	m.SetNestedPageTable(nPT)
	return p, m, addr.Range{Start: base, Size: 1 << 20}
}

// faultingStream touches the region's pages in a pseudo-random order
// with same-page repeats, so first touches demand-fault mid-block and
// the rest mix L1 hits, last-page repeats and walks.
func faultingStream(r addr.Range, n int) []trace.Event {
	evs := make([]trace.Event, n)
	x := uint64(0x9e3779b97f4a7c15)
	va := r.Start
	for i := range evs {
		x = x*6364136223846793005 + 1442695040888963407
		if x>>62 != 0 { // a quarter of events repeat the previous page
			va = r.Start + (x>>20)%(r.Size>>12)<<12
		}
		evs[i] = trace.Event{Kind: trace.Access, VA: addr.GVA(va + (x>>8)&0xff8)}
	}
	return evs
}

// perEventTranslate is the reference protocol: per-event Translate,
// servicing guest faults and retrying up to 3 attempts.
func perEventTranslate(t *testing.T, p *Process, m *mmu.MMU, evs []trace.Event) []mmu.Result {
	t.Helper()
	out := make([]mmu.Result, len(evs))
	for i, ev := range evs {
		for attempt := 0; ; attempt++ {
			if attempt == 3 {
				t.Fatalf("event %d still faulting", i)
			}
			res, fault := m.Translate(uint64(ev.VA))
			if fault == nil {
				out[i] = res
				break
			}
			if fault.Kind != mmu.FaultGuest {
				t.Fatalf("event %d: %v", i, fault)
			}
			if err := p.HandleFault(fault.Addr); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
		}
	}
	return out
}

// TestTranslateBlockMatchesPerEvent holds the shared demand-paging loop
// to the per-event protocol on a twin machine: same completed count,
// same per-event Results, same MMU Stats — with and without out.
func TestTranslateBlockMatchesPerEvent(t *testing.T) {
	refP, refM, r := translateEnv(t)
	evs := faultingStream(r, 4000)
	want := perEventTranslate(t, refP, refM, evs)
	if refM.Stats().GuestFaults == 0 {
		t.Fatal("stream took no demand faults")
	}

	p, m, _ := translateEnv(t)
	out := make([]mmu.Result, len(evs))
	// Uneven blocks, as the replay engine may hand over.
	for lo := 0; lo < len(evs); lo += 97 {
		hi := min(lo+97, len(evs))
		done, err := p.TranslateBlock(m, evs[lo:hi], out[lo:hi])
		if err != nil || done != hi-lo {
			t.Fatalf("block [%d,%d): done %d, err %v", lo, hi, done, err)
		}
	}
	if !slices.Equal(out, want) {
		t.Error("block Results differ from per-event Translate")
	}
	if got, ref := m.Stats(), refM.Stats(); got != ref {
		t.Errorf("Stats differ\nblock:     %+v\nper-event: %+v", got, ref)
	}

	nilP, nilM, _ := translateEnv(t)
	if done, err := nilP.TranslateBlock(nilM, evs, nil); err != nil || done != len(evs) {
		t.Fatalf("nil out: done %d, err %v", done, err)
	}
	if got, ref := nilM.Stats(), refM.Stats(); got != ref {
		t.Errorf("nil-out Stats differ\nblock:     %+v\nper-event: %+v", got, ref)
	}
}

// TestTranslateBlockOutsideRegion: a fault the kernel refuses stops the
// block at the faulting event with HandleFault's error wrapped.
func TestTranslateBlockOutsideRegion(t *testing.T) {
	p, m, r := translateEnv(t)
	evs := faultingStream(r, 50)
	evs[37].VA = addr.GVA(r.End() + 64<<20)
	done, err := p.TranslateBlock(m, evs, nil)
	if done != 37 || !errors.Is(err, ErrOutsideVA) {
		t.Errorf("done %d, err %v; want 37 and ErrOutsideVA", done, err)
	}
}

// TestTranslateBlockNestedFault: a nested fault is not the guest's to
// service; it stops the block with the *mmu.Fault reachable.
func TestTranslateBlockNestedFault(t *testing.T) {
	p, m, r := translateEnv(t)
	evs := faultingStream(r, 50)
	// A guest PTE pointing past guest memory, which the nested table
	// does not cover.
	bad := r.End() - addr.PageSize4K
	if err := p.PT.Map(bad, 2*translateGuestSize, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	evs[20].VA = addr.GVA(bad)
	done, err := p.TranslateBlock(m, evs, nil)
	var f *mmu.Fault
	if done != 20 || !errors.As(err, &f) || f.Kind != mmu.FaultNested {
		t.Errorf("done %d, err %v; want 20 and a nested *mmu.Fault", done, err)
	}
}
