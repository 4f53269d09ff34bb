// A round-robin scheduler for multiprogrammed guests. Its job in this
// reproduction is the §III requirement that "the guest segment register
// values are set per guest process and must be set during guest OS
// context switches": each switch installs the incoming process's page
// table root and segment registers under that process's ASID, so the
// TLBs are retagged rather than flushed (the PCID/ASID extension).

package guestos

import (
	"errors"

	"vdirect/internal/mmu"
)

// ErrNoRunnable is returned when the scheduler has no processes.
var ErrNoRunnable = errors.New("guestos: no runnable processes")

// Scheduler round-robins processes on one hardware context.
type Scheduler struct {
	procs []*Process
}

// NewScheduler creates a scheduler over the given processes.
func NewScheduler(procs []*Process) *Scheduler {
	return &Scheduler{procs: procs}
}

// SwitchTo dispatches process index i (modulo the process count) on the
// MMU: the guest page table root (CR3) and the guest segment registers
// change together, per §III.
func (s *Scheduler) SwitchTo(i int, hw *mmu.MMU) error {
	if len(s.procs) == 0 {
		return ErrNoRunnable
	}
	i %= len(s.procs)
	p := s.procs[i]
	// ASIDs are 1-based; 0 is reserved for the pre-scheduler state.
	hw.ContextSwitchASID(p.PT, p.Seg, uint16(i)+1)
	return nil
}
