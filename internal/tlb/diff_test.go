package tlb

import (
	"testing"

	"vdirect/internal/trace"
)

// refWay is one way of the reference model: the pre-SoA struct layout
// with explicit fields, written as plainly as possible so its behaviour
// is auditable by eye. The differential test drives it in lockstep with
// SetAssoc and requires identical results, hit/eviction/occupancy
// accounting and replacement decisions — the packed tag words must be a
// pure representation change.
type refWay struct {
	valid bool
	kind  EntryKind
	asid  uint16
	vpn   uint64
	ppn   uint64
	lru   uint64
}

type refSetAssoc struct {
	sets, ways int
	ents       []refWay
	clock      uint64
	lookups    uint64
	hits       uint64
	evictions  uint64
	occupied   int
	curASID    uint16
}

func newRef(entries, ways int) *refSetAssoc {
	return &refSetAssoc{sets: entries / ways, ways: ways, ents: make([]refWay, entries)}
}

func (r *refSetAssoc) base(vpn uint64) int {
	s := int(vpn) % r.sets
	if s < 0 {
		s = -s
	}
	return s * r.ways
}

// match is the hit rule the tag word encodes: valid, same kind, same
// vpn, and — for guest entries only — the ASID it was inserted under.
func (r *refSetAssoc) match(w refWay, kind EntryKind, vpn uint64) bool {
	if !w.valid || w.kind != kind || w.vpn != vpn {
		return false
	}
	return kind == KindNested || w.asid == r.curASID
}

func (r *refSetAssoc) lookup(kind EntryKind, vpn uint64) (uint64, bool) {
	r.lookups++
	r.clock++
	if vpn >= vpnMax {
		return 0, false // no tag word can hold it, so no entry can exist
	}
	b := r.base(vpn)
	for j := b; j < b+r.ways; j++ {
		if r.match(r.ents[j], kind, vpn) {
			r.ents[j].lru = r.clock
			r.hits++
			return r.ents[j].ppn, true
		}
	}
	return 0, false
}

// matches counts the valid ways of vpn's set that a lookup of (kind,
// vpn) would hit. More than one is possible: insert fills an invalid
// way that comes before a matching one, leaving the same tag in two
// ways, and a lookup must then hit the first in way order.
func (r *refSetAssoc) matches(kind EntryKind, vpn uint64) int {
	if vpn >= vpnMax {
		return 0
	}
	n := 0
	b := r.base(vpn)
	for j := b; j < b+r.ways; j++ {
		if r.match(r.ents[j], kind, vpn) {
			n++
		}
	}
	return n
}

func (r *refSetAssoc) insert(kind EntryKind, vpn, ppn uint64) {
	r.clock++
	b := r.base(vpn)
	// Victim: refresh-match or first invalid way, whichever comes first
	// in way order; else the LRU way.
	victim, vLRU := b, r.ents[b].lru
	for j := b; j < b+r.ways; j++ {
		w := r.ents[j]
		if r.match(w, kind, vpn) || !w.valid {
			victim = j
			break
		}
		if w.lru < vLRU {
			victim, vLRU = j, w.lru
		}
	}
	w := &r.ents[victim]
	if !w.valid {
		r.occupied++
	} else if !r.match(*w, kind, vpn) {
		r.evictions++
	}
	asid := r.curASID
	if kind == KindNested {
		asid = 0
	}
	*w = refWay{valid: true, kind: kind, asid: asid, vpn: vpn, ppn: ppn, lru: r.clock}
}

func (r *refSetAssoc) flush() {
	for i := range r.ents {
		r.ents[i].valid = false
	}
	r.occupied = 0
}

func (r *refSetAssoc) flushKind(kind EntryKind) {
	for i := range r.ents {
		if r.ents[i].valid && r.ents[i].kind == kind {
			r.ents[i].valid = false
			r.occupied--
		}
	}
}

func (r *refSetAssoc) flushASID(a uint16) {
	for i := range r.ents {
		w := r.ents[i]
		if w.valid && w.kind == KindGuest && w.asid == a {
			r.ents[i].valid = false
			r.occupied--
		}
	}
}

// invalidatePage matches every address space, like INVLPG.
func (r *refSetAssoc) invalidatePage(kind EntryKind, vpn uint64) {
	if vpn >= vpnMax {
		return
	}
	b := r.base(vpn)
	for j := b; j < b+r.ways; j++ {
		w := r.ents[j]
		if w.valid && w.kind == kind && w.vpn == vpn {
			r.ents[j].valid = false
			r.occupied--
		}
	}
}

// TestSetAssocMatchesReference drives SetAssoc and the reference model
// through long randomized op streams over several geometries — 4-way,
// and the padded 2-way (the PML4E cache's 2-entry shape among them)
// and 3-way sets — comparing every lookup result and every counter
// after every operation. Each geometry must also see lookups hit a set
// holding their tag in two valid ways, so the first-match rule is
// exercised, not just stated.
func TestSetAssocMatchesReference(t *testing.T) {
	geometries := []struct {
		name          string
		entries, ways int
	}{
		{"4way-pow2", 32, 4},
		{"4way-1set", 4, 4},
		{"2way", 16, 2},
		{"2way-1set", 2, 2},
		{"3way", 24, 3},
	}
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			c := NewSetAssoc(g.name, g.entries, g.ways)
			r := newRef(g.entries, g.ways)
			rng := trace.NewRand(uint64(g.entries)*31 + uint64(g.ways))

			peakOcc, dupHits := 0, 0
			check := func(op string, step int) {
				t.Helper()
				if r.occupied > peakOcc {
					peakOcc = r.occupied
				}
				lg, hg := c.Stats()
				if lg != r.lookups || hg != r.hits {
					t.Fatalf("step %d %s: stats (lookups %d, hits %d), reference (%d, %d)",
						step, op, lg, hg, r.lookups, r.hits)
				}
				if c.Evictions() != r.evictions {
					t.Fatalf("step %d %s: evictions %d, reference %d", step, op, c.Evictions(), r.evictions)
				}
				if c.Occupancy() != r.occupied {
					t.Fatalf("step %d %s: occupancy %d, reference %d", step, op, c.Occupancy(), r.occupied)
				}
			}

			// A small vpn universe forces constant set conflict; a sliver
			// of huge vpns exercises the vpnMax miss rule. Three ASIDs and
			// both kinds mix in every set.
			randVPN := func() uint64 {
				if rng.Uint64n(40) == 0 {
					return vpnMax + rng.Uint64n(1<<10) // beyond the tag field
				}
				return rng.Uint64n(uint64(g.entries) * 3)
			}
			kinds := []EntryKind{KindGuest, KindGuest, KindGuest, KindNested}
			var lastHit struct {
				ok   bool
				kind EntryKind
				vpn  uint64
			}
			lookup := func(k EntryKind, vpn uint64, step int) {
				t.Helper()
				if r.matches(k, vpn) > 1 {
					dupHits++
				}
				p1, h1 := c.Lookup(k, vpn)
				p2, h2 := r.lookup(k, vpn)
				if h1 != h2 || p1 != p2 {
					t.Fatalf("step %d: Lookup(%v, %#x) = (%#x, %v), reference (%#x, %v)",
						step, k, vpn, p1, h1, p2, h2)
				}
				check("lookup", step)
				if h2 {
					lastHit.ok, lastHit.kind, lastHit.vpn = true, k, vpn
				}
			}
			for step := 0; step < 20000; step++ {
				switch rng.Uint64n(20) {
				case 0:
					c.Flush()
					r.flush()
					check("flush", step)
				case 1:
					k := kinds[rng.Uint64n(4)]
					c.FlushKind(k)
					r.flushKind(k)
					check("flushkind", step)
				case 2:
					a := uint16(rng.Uint64n(3))
					c.SetASID(a)
					r.curASID = a
				case 3:
					a := uint16(rng.Uint64n(3))
					c.FlushASID(a)
					r.flushASID(a)
					check("flushasid", step)
				case 4:
					k, vpn := kinds[rng.Uint64n(4)], randVPN()
					c.InvalidatePage(k, vpn)
					r.invalidatePage(k, vpn)
					check("invalidate", step)
				case 5, 6, 7, 8, 9:
					k, vpn := kinds[rng.Uint64n(4)], randVPN()
					if vpn >= vpnMax {
						vpn = rng.Uint64n(uint64(g.entries) * 3)
					}
					ppn := rng.Uint64()
					c.Insert(k, vpn, ppn)
					r.insert(k, vpn, ppn)
					check("insert", step)
				case 10, 11:
					// Re-insert the last hit under a new PPN: when its set
					// has an invalid way before the resident copy, the
					// insert fills that way and the tag is now held twice,
					// each copy with a different PPN, so the lookup below
					// tells first-match from any-match.
					if !lastHit.ok {
						continue
					}
					ppn := rng.Uint64()
					c.Insert(lastHit.kind, lastHit.vpn, ppn)
					r.insert(lastHit.kind, lastHit.vpn, ppn)
					check("reinsert", step)
					lookup(lastHit.kind, lastHit.vpn, step)
				default:
					lookup(kinds[rng.Uint64n(4)], randVPN(), step)
				}
			}
			// Periodic flushes keep the cache from pinning at 100%, but a
			// run that never got half full would not be testing conflicts.
			if peakOcc < g.entries/2 {
				t.Fatalf("randomized run barely populated the cache: peak occupancy %d of %d", peakOcc, g.entries)
			}
			if dupHits == 0 {
				t.Fatal("no lookup hit a set holding its tag in two ways: first-match order untested")
			}
			t.Logf("%d lookups hit a duplicated tag", dupHits)
		})
	}
}

// TestInsertRejectsOversizedVPN pins the 46-bit tag-field contract:
// inserting a VPN that cannot be represented must panic rather than
// silently alias another page.
func TestInsertRejectsOversizedVPN(t *testing.T) {
	c := NewSetAssoc("oversize", 8, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert of VPN ≥ 2^46 did not panic")
		}
	}()
	c.Insert(KindGuest, vpnMax, 1)
}
