// Package trace defines the memory-access trace abstraction connecting
// workload generators to the MMU simulator, plus the deterministic
// random-number machinery (xorshift64*, Zipf) every generator shares.
//
// The paper instruments real executions with BadgerTrap to observe each
// DTLB miss; here the workloads themselves emit every data reference so
// the simulator can observe all of them, not a sampled subset.
package trace

import (
	"errors"
	"fmt"
	"math"

	"vdirect/internal/addr"
)

// Kind distinguishes the events a workload can emit.
type Kind uint8

const (
	// Access is a data memory reference at a guest virtual address.
	Access Kind = iota
	// Alloc reports that the workload mapped new memory (an mmap/brk),
	// used by the shadow-paging study: each allocation dirties the guest
	// page table and would force shadow-page-table maintenance.
	Alloc
	// Free reports an unmap event.
	Free
)

// Event is one element of a workload's trace. The two one-byte fields
// follow the two words, so an Event is 24 bytes, not 32: every trace
// buffer and every NextBlock copy moves a quarter less memory
// (TestEventSize pins it).
type Event struct {
	// VA is the guest virtual address touched (Access) or the start of
	// the region mapped/unmapped (Alloc/Free).
	VA addr.GVA
	// Size is the region size for Alloc/Free; unused for Access.
	Size uint64
	Kind Kind
	// Write marks store accesses; reads and writes translate the same
	// way but the distinction feeds the page-sharing CoW study.
	Write bool
}

// Generator produces a deterministic stream of events. Generators are
// restartable: Reset returns them to the initial state so that the same
// instance can be replayed under many MMU configurations.
//
// Next is the compatibility shim for one-event-at-a-time consumers;
// hot paths should detect BlockGenerator and pull events in blocks.
type Generator interface {
	// Name identifies the workload (e.g. "graph500").
	Name() string
	// Next returns the next event. ok is false when the trace is done.
	Next() (ev Event, ok bool)
	// Reset rewinds the generator to the start of its trace.
	Reset()
}

// BlockGenerator is the streaming fast path: generators that can fill a
// caller-owned buffer with many events per call, amortizing interface
// dispatch out of the replay hot loop. NextBlock and Next share one
// read cursor — mixing them is safe and Reset rewinds both.
type BlockGenerator interface {
	Generator
	// NextBlock copies up to len(buf) events into buf and returns how
	// many were written; 0 means the trace is exhausted (like ok=false
	// from Next). It never returns 0 with events remaining when
	// len(buf) > 0.
	NextBlock(buf []Event) int
}

// FillBlock fills buf from g, using the block fast path when g
// implements BlockGenerator and falling back to per-event Next calls
// otherwise. It returns the number of events written; 0 means the
// trace is exhausted (when len(buf) > 0).
func FillBlock(g Generator, buf []Event) int {
	if bg, ok := g.(BlockGenerator); ok {
		return bg.NextBlock(buf)
	}
	n := 0
	for n < len(buf) {
		ev, ok := g.Next()
		if !ok {
			break
		}
		buf[n] = ev
		n++
	}
	return n
}

// Rand is a deterministic xorshift64* PRNG. It is intentionally not
// math/rand so that traces are stable across Go releases and so the
// generator can be embedded without locking.
type Rand struct{ state uint64 }

// NewRand creates a PRNG; a zero seed is remapped to a fixed constant
// because xorshift has an all-zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Uint64n returns a value uniform in [0, n). Its panic on n == 0 is an
// invariant, not an input check: each caller's bound is positive by
// construction. Bounds are constants, Perm's i+1, escape.NewSized's
// checked bank size, a slice checked non-empty (host's randGuest, as
// host.Config rejects Guests ≤ 0; the shared-page pick), a region or
// memory size (experiments' bad pages, host's probes and policies), or
// a workload generator's size, positive at any MemoryMB ≥ 1:
// FuzzGeneratorContracts builds every workload at 1–32 MB, withDefaults
// maps 0 to 64, and hostsim's and tracestat's checkSizing reject -mem ≤ 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("trace: Uint64n(0)")
	}
	return r.Uint64() % n
}

// Intn returns a value uniform in [0, n).
func (r *Rand) Intn(n int) int { return int(r.Uint64n(uint64(n))) }

// Float64 returns a value uniform in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Perm returns a random permutation of [0, n), Fisher-Yates.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s, the access skew of key-value workloads like memcached.
// It uses the rejection-inversion method of Hörmann & Derflinger, the
// same approach as math/rand's Zipf but self-contained and stable.
type Zipf struct {
	r                *Rand
	n                float64
	s                float64
	oneMinusS        float64
	oneOverOneMinusS float64
	hIntegralX1      float64
	hIntegralN       float64
	sDiv             float64
}

// NewZipf creates a Zipf sampler over n items with exponent s > 0, s != 1
// handled via the generalized harmonic integral. Its panic on n == 0 is
// an invariant: the one caller, the memcached generator, passes its item
// count, over 1700 at the smallest MemoryMB, 1 (see Uint64n).
func NewZipf(r *Rand, n uint64, s float64) *Zipf {
	if n == 0 {
		panic("trace: NewZipf with n=0")
	}
	z := &Zipf{r: r, n: float64(n), s: s}
	z.oneMinusS = 1 - s
	z.oneOverOneMinusS = 1 / z.oneMinusS
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(z.n + 0.5)
	z.sDiv = 2 - z.hIntegralInv(z.hIntegral(2.5)-z.h(2))
	return z
}

func (z *Zipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2((1-z.s)*logX) * logX
}

func (z *Zipf) hIntegralInv(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with a series near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1/3.0-x*0.25))
}

// helper2 computes expm1(x)/x with a series near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1/3.0)*(1+x*0.25))
}

// Rank draws the next sample in [0, n), rank 0 most popular.
func (z *Zipf) Rank() uint64 {
	for {
		u := z.hIntegralN + z.r.Float64()*(z.hIntegralX1-z.hIntegralN)
		x := z.hIntegralInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > z.n {
			k = z.n
		}
		if k-x <= z.sDiv || u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k) - 1
		}
	}
}

// Slice is an in-memory trace, convenient for tests and for replaying a
// fixed event sequence under several configurations. A Slice never
// writes its events, so any number of cursors (Cursor) may read them
// at once.
type Slice struct {
	name string
	evs  []Event
	pos  int
}

// NewSlice builds a replayable trace over evs, which it keeps without
// copying or scanning.
func NewSlice(name string, evs []Event) *Slice { return &Slice{name: name, evs: evs} }

// Cursor returns a new reader of the same events, positioned at the
// start. It shares the event slice, so it costs one small allocation.
func (s *Slice) Cursor() *Slice { return NewSlice(s.name, s.evs) }

// Name implements Generator.
func (s *Slice) Name() string { return s.name }

// Next implements Generator.
func (s *Slice) Next() (Event, bool) {
	if s.pos >= len(s.evs) {
		return Event{}, false
	}
	ev := s.evs[s.pos]
	s.pos++
	return ev, true
}

// NextBlock implements BlockGenerator: it copies a run of events into
// buf and advances the shared cursor, one call per ~len(buf) events
// instead of one interface call per event.
func (s *Slice) NextBlock(buf []Event) int {
	n := copy(buf, s.evs[s.pos:])
	s.pos += n
	return n
}

// Reset implements Generator.
func (s *Slice) Reset() { s.pos = 0 }

// Len returns the number of events in the trace.
func (s *Slice) Len() int { return len(s.evs) }

// ErrTruncated reports that Collect hit its max before the generator
// was exhausted, so the returned Slice is a prefix of the full trace.
var ErrTruncated = errors.New("trace: collection truncated at max events")

// Collect drains up to max events from g into a Slice (all events when
// max <= 0). When the generator still holds events past max, Collect
// returns the truncated Slice together with an error wrapping
// ErrTruncated, so callers can no longer mistake a prefix for the full
// trace. It is a test helper.
func Collect(g Generator, max int) (*Slice, error) {
	var evs []Event
	buf := make([]Event, 1024)
	for {
		want := buf
		if max > 0 && max-len(evs) < len(buf) {
			want = buf[:max-len(evs)]
		}
		n := FillBlock(g, want)
		if n == 0 {
			break
		}
		evs = append(evs, want[:n]...)
		if max > 0 && len(evs) >= max {
			if _, more := g.Next(); more {
				return NewSlice(g.Name(), evs),
					fmt.Errorf("%w: kept %d", ErrTruncated, len(evs))
			}
			break
		}
	}
	return NewSlice(g.Name(), evs), nil
}

func (k Kind) String() string {
	switch k {
	case Access:
		return "access"
	case Alloc:
		return "alloc"
	case Free:
		return "free"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}
