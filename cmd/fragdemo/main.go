// Command fragdemo narrates the paper's fragmentation remedies (§IV):
// self-ballooning on a fragmented guest, I/O-gap reclamation, and host
// memory compaction unlocking the Table III mode transition from Guest
// Direct to Dual Direct.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"vdirect"
	"vdirect/internal/addr"
	"vdirect/internal/guestos"
	"vdirect/internal/physmem"
	"vdirect/internal/telemetry"
	"vdirect/internal/trace"
	"vdirect/internal/vmm"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the usage is printed
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fragdemo:", err)
		os.Exit(1)
	}
}

// run parses args and narrates the demos to stdout; flag errors and
// usage go to stderr. The demos take no arguments.
func run(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("fragdemo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var tf telemetry.Flags
	tf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q: fragdemo takes only flags", fs.Args())
	}

	if tf.Version {
		fmt.Fprintln(stdout, telemetry.VersionString("fragdemo"))
		return nil
	}
	sess, err := tf.Start("fragdemo", nil)
	if err != nil {
		return err
	}
	defer func() {
		if err := sess.Close(retErr); retErr == nil {
			retErr = err
		}
	}()

	demos := []struct {
		name string
		f    func(io.Writer) error
	}{
		{"self-balloon", selfBalloonDemo},
		{"io-gap", ioGapDemo},
		{"compaction", compactionDemo},
	}
	for _, d := range demos {
		span := telemetry.StartSpan("section", d.name)
		err := d.f(stdout)
		span.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// selfBalloonDemo shows Figure 9: contiguous guest physical memory from
// fragmented free memory, without compaction.
func selfBalloonDemo(w io.Writer) error {
	fmt.Fprintln(w, "== Self-ballooning (Figure 9) ==")
	s, err := vdirect.NewSystem(vdirect.Config{Mode: vdirect.GuestDirect, GuestMemory: 256 << 20})
	if err != nil {
		return err
	}
	taken := s.FragmentGuestMemory(0.6, 7)
	fmt.Fprintf(w, "fragmented guest memory: %d scattered frames allocated\n", taken)
	if _, err := s.CreatePrimaryRegion(64 << 20); err == nil {
		return fmt.Errorf("expected fragmentation to block the guest segment")
	}
	fmt.Fprintln(w, "guest segment creation failed as expected: no contiguous 64MB run")
	base, err := s.SelfBalloon(64 << 20)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "self-balloon: pinned 64MB of scattered pages, hotplugged contiguous gPA range at %#x\n", base)
	if err := s.RetryPrimaryRegion(); err != nil {
		return err
	}
	b, l, _, _ := s.GuestSegment()
	fmt.Fprintf(w, "guest segment live: [%#x, %#x) — mode is now %v\n\n", b, l, s.Mode())
	return nil
}

// ioGapDemo shows §IV "Reclaiming I/O gap memory" on a 6GB guest.
func ioGapDemo(w io.Writer) error {
	fmt.Fprintln(w, "== I/O gap reclamation (§IV, §VI.C) ==")
	host := vmm.NewHost(8 << 30)
	vm, err := host.CreateVM(vmm.VMConfig{
		Name: "guest", MemorySize: 6 << 30, IOGap: true, NestedPageSize: addr.Page4K,
	})
	if err != nil {
		return err
	}
	kernel := guestos.NewKernel(vm.GuestMem, vm)
	start, length := kernel.Mem.LargestFreeRun()
	fmt.Fprintf(w, "before: largest contiguous run %#x bytes at %#x (split by the 3-4GB I/O gap)\n",
		length<<12, physmem.FrameToAddr(start))
	newRange, err := kernel.ReclaimIOGap(256 << 20)
	if err != nil {
		return err
	}
	start, length = kernel.Mem.LargestFreeRun()
	fmt.Fprintf(w, "unplugged low memory above 256MB, hotplugged %#x bytes at %#x\n",
		newRange.Size, newRange.Start)
	fmt.Fprintf(w, "after: largest contiguous run %#x bytes at %#x — one segment now covers it\n\n",
		length<<12, physmem.FrameToAddr(start))
	return nil
}

// compactionDemo shows the Table III transition: fragmented host blocks
// the VMM segment; compaction unblocks it and the VM moves from Guest
// Direct toward Dual Direct.
func compactionDemo(w io.Writer) error {
	fmt.Fprintln(w, "== Host compaction enabling Dual Direct (Table III) ==")
	host := vmm.NewHost(512 << 20)
	rng := trace.NewRand(11)
	junk := host.Mem.FragmentRandomly(0.3, rng.Uint64n)
	vm, err := host.CreateVM(vmm.VMConfig{
		Name: "vm", MemorySize: 128 << 20, NestedPageSize: addr.Page4K,
	})
	if err != nil {
		return err
	}
	// Free every other junk frame: the survivors pin fragmentation in
	// place, so no contiguous 128MB run exists anywhere.
	for i, f := range junk {
		if i%2 == 0 {
			continue
		}
		if err := host.Mem.FreeFrame(f); err != nil {
			return err
		}
	}
	if _, err := vm.TryEnableVMMSegment(); err == nil {
		fmt.Fprintln(w, "(host happened to have a contiguous run; no compaction needed)")
		return nil
	}
	fmt.Fprintln(w, "VMM segment creation failed: host fragmented — running in Guest Direct")
	moved, err := host.Compact()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "compaction daemon relocated %d frames and repaired the nested page table\n", moved)
	seg, err := vm.TryEnableVMMSegment()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "VMM segment live: %v — Dual Direct now possible\n", seg)
	return nil
}
