package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestCache(t *testing.T) *Cache {
	t.Helper()
	return NewCache("t", 8*1024, 4, 64, 1) // 32 sets, 4 ways
}

func TestCacheGeometry(t *testing.T) {
	c := newTestCache(t)
	if c.Sets() != 32 || c.Ways() != 4 || c.LineSize() != 64 {
		t.Fatalf("geometry: sets=%d ways=%d line=%d", c.Sets(), c.Ways(), c.LineSize())
	}
	if c.SizeBytes() != 8*1024 {
		t.Fatalf("size=%d", c.SizeBytes())
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct{ total, ways, line, nt int }{
		{0, 4, 64, 0},
		{8192, 0, 64, 0},
		{8192, 4, 0, 0},
		{8192, 4, 64, 5},    // ntWays > ways
		{8192, 4, 64, -1},   // negative ntWays
		{8190, 4, 64, 0},    // not a multiple
		{96 * 64, 4, 64, 0}, // 24 sets: not a power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%v) did not panic", tc)
				}
			}()
			NewCache("bad", tc.total, tc.ways, tc.line, tc.nt)
		}()
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := newTestCache(t)
	if c.Lookup(0x1000, false) {
		t.Fatal("hit in empty cache")
	}
	c.Fill(0x1000, false, HintNone)
	if !c.Lookup(0x1000, false) {
		t.Fatal("miss after fill")
	}
	if !c.Lookup(0x1030, false) {
		t.Fatal("miss within same line")
	}
	if c.Lookup(0x1040, false) {
		t.Fatal("hit in adjacent line")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newTestCache(t)
	// Five lines mapping to the same set (stride = sets*line = 2048).
	lines := make([]Addr, 5)
	for i := range lines {
		lines[i] = uint64(i) * 2048
	}
	for _, a := range lines[:4] {
		c.Fill(a, false, HintNone)
	}
	// Touch line 0 so line 1 becomes LRU.
	c.Lookup(lines[0], false)
	ev := c.Fill(lines[4], false, HintNone)
	if !ev.Valid || ev.Line != lines[1] {
		t.Fatalf("evicted %+v, want line %#x", ev, lines[1])
	}
	if !c.Contains(lines[0]) || c.Contains(lines[1]) {
		t.Fatal("LRU order violated")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := newTestCache(t)
	c.Fill(0, true, HintNone) // dirty
	for i := 1; i <= 4; i++ {
		ev := c.Fill(uint64(i)*2048, false, HintNone)
		if i == 4 {
			if !ev.Valid || !ev.Dirty || ev.Line != 0 {
				t.Fatalf("want dirty eviction of line 0, got %+v", ev)
			}
		} else if ev.Valid {
			t.Fatalf("unexpected eviction %+v at fill %d", ev, i)
		}
	}
	if c.Stats.DirtyEvict != 1 {
		t.Fatalf("DirtyEvict=%d", c.Stats.DirtyEvict)
	}
}

func TestCacheWriteMarksDirty(t *testing.T) {
	c := newTestCache(t)
	c.Fill(0, false, HintNone)
	c.Lookup(0, true) // store hit dirties the line
	for i := 1; i <= 4; i++ {
		if ev := c.Fill(uint64(i)*2048, false, HintNone); ev.Valid && ev.Line == 0 && !ev.Dirty {
			t.Fatal("store hit did not dirty the line")
		}
	}
}

// Non-temporal fills must never displace temporal lines: that is the
// SRF-pinning mechanism of §III-A.
func TestCacheNTFillsNeverEvictTemporal(t *testing.T) {
	c := newTestCache(t) // 4 ways, 1 NT way
	// Fill the set with temporal lines (the pinned SRF).
	for i := 0; i < 4; i++ {
		c.Fill(uint64(i)*2048, false, HintNone)
	}
	// Stream 100 NT lines through the same set.
	for i := 4; i < 104; i++ {
		ev := c.Fill(uint64(i)*2048, false, HintNonTemporal)
		if ev.Valid && ev.Line == 0*2048 && i > 4 {
			// The very first NT fill may displace the temporal line in
			// way 0; after that, NT traffic must only recycle NT lines.
			t.Fatalf("NT fill %d displaced temporal line", i)
		}
	}
	// At least ways 1..3 must still hold the original SRF lines.
	for i := 1; i < 4; i++ {
		if !c.Contains(uint64(i) * 2048) {
			t.Fatalf("temporal (SRF) line %d was displaced by NT traffic", i)
		}
	}
}

func TestCacheTemporalFillPrefersNTVictim(t *testing.T) {
	c := newTestCache(t)
	// Fill every way with temporal lines, stream one NT line through
	// (it recycles way 0), then fill temporally again: the NT line must
	// be the victim even though it is the most recently inserted.
	for i := 0; i < 4; i++ {
		c.Fill(uint64(i)*2048, false, HintNone)
	}
	c.Fill(4*2048, false, HintNonTemporal)
	ev := c.Fill(5*2048, false, HintNone)
	if !ev.Valid || ev.Line != 4*2048 {
		t.Fatalf("temporal fill should evict the NT line first, evicted %+v", ev)
	}
}

func TestCacheFillExistingRefreshes(t *testing.T) {
	c := newTestCache(t)
	c.Fill(0, false, HintNone)
	ev := c.Fill(0, true, HintNone)
	if ev.Valid {
		t.Fatalf("re-fill evicted %+v", ev)
	}
	// The re-fill with write=true must dirty it.
	c.Fill(1*2048, false, HintNone)
	c.Fill(2*2048, false, HintNone)
	c.Fill(3*2048, false, HintNone)
	ev = c.Fill(4*2048, false, HintNone)
	if !ev.Valid || ev.Line != 0 || !ev.Dirty {
		t.Fatalf("want dirty eviction of line 0, got %+v", ev)
	}
}

func TestCacheResidentBytes(t *testing.T) {
	c := newTestCache(t)
	for a := uint64(0); a < 512; a += 64 {
		c.Fill(a, false, HintNone)
	}
	if got := c.ResidentBytes(0, 512); got != 512 {
		t.Fatalf("ResidentBytes=%d want 512", got)
	}
	if got := c.ResidentBytes(0, 1024); got != 512 {
		t.Fatalf("ResidentBytes=%d want 512", got)
	}
}

func TestCacheFlush(t *testing.T) {
	c := newTestCache(t)
	c.Fill(0, true, HintNone)
	c.Fill(64, false, HintNone)
	if d := c.Flush(); d != 1 {
		t.Fatalf("Flush dropped %d dirty lines, want 1", d)
	}
	if c.Contains(0) || c.Contains(64) {
		t.Fatal("lines survive flush")
	}
}

// Property: the cache never holds two copies of one line, and never
// exceeds its associativity per set.
func TestCacheNoDuplicateLinesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache("q", 4*1024, 4, 64, 1)
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(64)) * 64 * 7 % (1 << 20)
			hint := HintNone
			if rng.Intn(3) == 0 {
				hint = HintNonTemporal
			}
			if rng.Intn(2) == 0 {
				c.Lookup(addr, rng.Intn(2) == 0)
			} else {
				c.Fill(addr, rng.Intn(2) == 0, hint)
			}
			// Check invariant: each (set, tag) appears at most once.
			for s := 0; s < c.nsets; s++ {
				seen := map[uint64]bool{}
				for w, tag := range c.tags[s*c.ways : (s+1)*c.ways] {
					if c.valid[s]&(1<<w) == 0 {
						if tag != 0 {
							return false
						}
						continue
					}
					if seen[tag] {
						return false
					}
					seen[tag] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: a line just filled is resident; Lookup immediately after
// Fill must hit for any address within the line.
func TestCacheFillThenLookupProperty(t *testing.T) {
	f := func(raw uint64, off uint8, write bool) bool {
		c := NewCache("q", 4*1024, 4, 64, 1)
		addr := raw % (1 << 30)
		c.Fill(addr, write, HintNone)
		probe := c.LineAddr(addr) + uint64(off)%64
		return c.Lookup(probe, false)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheStatsCount(t *testing.T) {
	c := newTestCache(t)
	c.Lookup(0, false) // miss
	c.Fill(0, false, HintNone)
	c.Lookup(0, false) // hit
	c.Lookup(0, false) // hit
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}
