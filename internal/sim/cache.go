package sim

import (
	"fmt"
	"math/bits"
)

// Cache is a set-associative write-back, write-allocate cache with true
// LRU replacement and a non-temporal insertion policy: NT fills are
// confined to the ntWays lowest-numbered ways of each set, and temporal
// fills evict NT lines first, so streamed data can never displace the
// temporally-filled (SRF) lines. This reproduces how the paper pins the
// SRF in L2 while gather/scatter traffic streams past it (§III-A).
//
// The state is flat: way w of set s is entry s*ways+w of tags and lru,
// and each set keeps valid, dirty and NT bitmasks over its ways, so a
// victim is found with a trailing-zero count or one pass over the
// candidate ways' LRU stamps.
type Cache struct {
	name     string
	lineSize int
	ways     int
	nsets    int
	ntWays   int
	tick     uint64

	// Precomputed shift/mask forms of the geometry (everything is a
	// power of two), so the hot index() avoids integer division.
	lineShift uint
	setShift  uint
	setMask   uint64

	tags             []uint64 // tag<<1 | 1 when the way is valid, else 0
	lru              []uint64 // tick of the way's last touch; larger = more recent
	valid, dirty, nt []uint64 // per-set bitmasks over ways

	// CacheStats accumulates since construction or the last reset.
	Stats CacheStats
}

// CacheStats counts cache events.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	NTFills    uint64
	Evictions  uint64
	DirtyEvict uint64
}

// NewCache builds a cache from total size, associativity and line size.
// The geometry panics below are internal invariants: Config.Validate
// (enforced by sim.New) rejects every configuration that could trip
// them, so they are reachable only by constructing a Cache directly
// with unvalidated parameters.
func NewCache(name string, totalBytes, ways, lineSize, ntWays int) *Cache {
	if totalBytes <= 0 || ways <= 0 || lineSize <= 0 || totalBytes%(ways*lineSize) != 0 {
		panic(fmt.Sprintf("sim: bad cache geometry %s: %d/%d/%d", name, totalBytes, ways, lineSize))
	}
	if ntWays < 0 || ntWays > ways || ways > 64 {
		panic(fmt.Sprintf("sim: ntWays %d out of range for %d-way cache (at most 64 ways)", ntWays, ways))
	}
	nsets := totalBytes / (ways * lineSize)
	if !isPow2(nsets) || !isPow2(lineSize) {
		panic(fmt.Sprintf("sim: cache %s sets (%d) and line (%d) must be powers of two", name, nsets, lineSize))
	}
	c := &Cache{name: name, lineSize: lineSize, ways: ways, nsets: nsets, ntWays: ntWays,
		setMask: uint64(nsets - 1), tags: make([]uint64, nsets*ways), lru: make([]uint64, nsets*ways),
		valid: make([]uint64, nsets), dirty: make([]uint64, nsets), nt: make([]uint64, nsets)}
	for 1<<c.lineShift != lineSize {
		c.lineShift++
	}
	for 1<<c.setShift != nsets {
		c.setShift++
	}
	return c
}

// LineSize returns the cache line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.nsets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SizeBytes returns the total capacity.
func (c *Cache) SizeBytes() int { return c.nsets * c.ways * c.lineSize }

// LineAddr returns the address of the line containing addr.
func (c *Cache) LineAddr(addr Addr) Addr { return addr &^ uint64(c.lineSize-1) }

// index returns the set of line and its valid tag word (tag<<1 | 1).
func (c *Cache) index(line Addr) (set int, tagWord uint64) {
	l := line >> c.lineShift
	return int(l & c.setMask), (l>>c.setShift)<<1 | 1
}

// find returns the way of set holding tagWord, or -1.
func (c *Cache) find(set int, tagWord uint64) int {
	for w, t := range c.tags[set*c.ways : (set+1)*c.ways] {
		if t == tagWord {
			return w
		}
	}
	return -1
}

// touch makes way w of set the most recently used and applies a
// write's dirty bit.
func (c *Cache) touch(set, w int, write bool) {
	c.tick++
	c.lru[set*c.ways+w] = c.tick
	if write {
		c.dirty[set] |= 1 << w
	}
}

// Lookup probes the cache without filling. On a hit it refreshes LRU
// state and applies the write's dirty bit.
func (c *Cache) Lookup(addr Addr, write bool) bool {
	set, tagWord := c.index(addr)
	if w := c.find(set, tagWord); w >= 0 {
		c.touch(set, w, write)
		c.Stats.Hits++
		return true
	}
	c.Stats.Misses++
	return false
}

// Evicted describes a line displaced by a fill.
type Evicted struct {
	Line  Addr
	Dirty bool
	Valid bool
}

// Fill inserts the line containing addr. hint selects the insertion
// policy; write marks the new line dirty (write-allocate). It returns
// the displaced line, if any. Filling a line that is already present
// only refreshes its state.
func (c *Cache) Fill(addr Addr, write bool, hint Hint) Evicted {
	// Already present (e.g. a prefetch landed before the demand fill).
	set, tagWord := c.index(addr)
	if w := c.find(set, tagWord); w >= 0 {
		c.touch(set, w, write)
		return Evicted{}
	}
	return c.fillMiss(c.LineAddr(addr), write, hint)
}

// fillMiss is Fill for a line the caller has just proven absent (by a
// failed Lookup with no intervening installs), skipping the
// already-present search.
//
// Victim priority: the first invalid candidate way, else the LRU
// non-temporal line, else the LRU line. NT fills may only take the NT
// ways, which therefore behave as a small LRU sub-cache for streamed
// data; temporal fills prefer recycling NT lines over evicting the
// (SRF) working set.
func (c *Cache) fillMiss(line Addr, write bool, hint Hint) Evicted {
	set, tagWord := c.index(line)
	n := c.ways
	if hint == HintNonTemporal && c.ntWays > 0 {
		n = c.ntWays
		c.Stats.NTFills++
	}
	candidates := ^uint64(0) >> (64 - n)
	var w int
	if free := candidates &^ c.valid[set]; free != 0 {
		w = bits.TrailingZeros64(free)
	} else {
		if ntLines := candidates & c.nt[set]; ntLines != 0 {
			candidates = ntLines
		}
		w = c.lruWay(set, candidates)
	}

	bit := uint64(1) << w
	i := set*c.ways + w
	ev := Evicted{}
	if c.valid[set]&bit != 0 {
		dirty := c.dirty[set]&bit != 0
		c.Stats.Evictions++
		if dirty {
			c.Stats.DirtyEvict++
		}
		ev = Evicted{Line: c.lineFromSetTag(set, c.tags[i]>>1), Dirty: dirty, Valid: true}
	}
	c.tags[i] = tagWord
	c.valid[set] |= bit
	c.dirty[set] &^= bit
	c.nt[set] &^= bit
	if hint == HintNonTemporal {
		c.nt[set] |= bit
	}
	c.touch(set, w, write)
	return ev
}

// lruWay returns the least recently used way among the candidates
// (a nonzero way bitmask of set).
func (c *Cache) lruWay(set int, candidates uint64) int {
	lru := c.lru[set*c.ways : (set+1)*c.ways]
	best, bestTick := 0, ^uint64(0)
	for m := candidates; m != 0; m &= m - 1 {
		if w := bits.TrailingZeros64(m); lru[w] < bestTick {
			best, bestTick = w, lru[w]
		}
	}
	return best
}

func (c *Cache) lineFromSetTag(set int, tag uint64) Addr {
	return (tag<<c.setShift | uint64(set)) << c.lineShift
}

// Contains reports whether the line holding addr is resident (no LRU
// update, no stats).
func (c *Cache) Contains(addr Addr) bool {
	return c.find(c.index(addr)) >= 0
}

// ResidentBytes returns how many bytes of [base, base+size) are
// currently resident, for SRF pinning diagnostics.
func (c *Cache) ResidentBytes(base Addr, size uint64) uint64 {
	var n uint64
	for line := c.LineAddr(base); line < base+size; line += uint64(c.lineSize) {
		if c.Contains(line) {
			n += uint64(c.lineSize)
		}
	}
	return n
}

// Flush invalidates the whole cache, returning the number of dirty
// lines dropped. Used between independent experiments.
func (c *Cache) Flush() (dirty int) {
	for s := range c.valid {
		dirty += bits.OnesCount64(c.valid[s] & c.dirty[s])
	}
	clear(c.tags)
	clear(c.valid)
	clear(c.dirty)
	clear(c.nt)
	return dirty
}
