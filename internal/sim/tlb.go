package sim

// TLB models a fully-associative translation lookaside buffer with LRU
// replacement. The paper identifies the hardware page-table walk — not
// the cache miss itself — as the dominant cost of random gathers and
// scatters on the Pentium 4 (§III-A), so the walk penalty is charged on
// every TLB miss before the memory access can issue.
//
// Each slot holds one page. The slots are linked into a recency list
// (head = most recently used) by index, and an open-addressed
// page → slot table finds a page without scanning, so a hit, a miss and
// an eviction each cost O(1) whatever the entry count (64 on the
// paper's machine, 512 on the improved one).
type TLB struct {
	pageBits uint

	page       []uint64 // page held by each slot
	prev, next []int32  // recency list over slots; -1 ends it
	head, tail int32    // most and least recently used slot, -1 when empty
	used       int32    // slots filled since the last flush

	// index maps a page to its slot+1 by linear probing from the page's
	// hash; 0 marks an empty bucket. It has at least twice as many
	// buckets as slots.
	index     []int32
	hashShift uint

	Stats TLBStats
}

// TLBStats counts translation events.
type TLBStats struct {
	Hits   uint64
	Misses uint64
}

// NewTLB returns a TLB with the given entry count and page size. The
// geometry panic is an internal invariant: Config.Validate (enforced
// by sim.New) rejects configurations that could trip it.
func NewTLB(entries, pageBytes int) *TLB {
	if entries <= 0 || !isPow2(pageBytes) {
		panic("sim: bad TLB geometry")
	}
	t := &TLB{page: make([]uint64, entries), prev: make([]int32, entries), next: make([]int32, entries)}
	for 1<<t.pageBits != pageBytes {
		t.pageBits++
	}
	bucketBits := uint(1)
	for 1<<bucketBits < 2*entries {
		bucketBits++
	}
	t.index = make([]int32, 1<<bucketBits)
	t.hashShift = 64 - bucketBits
	t.Flush()
	return t
}

// Translate looks up the page containing addr, returning true on a hit.
// A miss installs the translation, evicting the least recently used
// page when the TLB is full (the caller charges the walk).
func (t *TLB) Translate(addr Addr) bool {
	page := addr >> t.pageBits
	if t.head >= 0 && t.page[t.head] == page {
		t.Stats.Hits++
		return true
	}
	if s := t.lookup(page); s >= 0 {
		t.unlink(s)
		t.pushFront(s)
		t.Stats.Hits++
		return true
	}
	t.Stats.Misses++
	var s int32
	if int(t.used) < len(t.page) {
		s = t.used
		t.used++
	} else {
		s = t.tail
		t.unindex(t.page[s])
		t.unlink(s)
	}
	t.page[s] = page
	t.pushFront(s)
	i := t.bucket(page)
	for t.index[i] != 0 {
		i = (i + 1) & t.mask()
	}
	t.index[i] = s + 1
	return false
}

func (t *TLB) mask() int { return len(t.index) - 1 }

// bucket is the page's home bucket in index.
func (t *TLB) bucket(page uint64) int {
	return int((page * 0x9E3779B97F4A7C15) >> t.hashShift)
}

// lookup returns the slot holding page, or -1.
func (t *TLB) lookup(page uint64) int32 {
	for i := t.bucket(page); ; i = (i + 1) & t.mask() {
		s := t.index[i] - 1
		if s < 0 || t.page[s] == page {
			return s
		}
	}
}

// unindex removes a resident page from index, shifting later entries of
// its probe run back so lookups never need tombstones.
func (t *TLB) unindex(page uint64) {
	hole := t.bucket(page)
	for t.page[t.index[hole]-1] != page {
		hole = (hole + 1) & t.mask()
	}
	for j := (hole + 1) & t.mask(); t.index[j] != 0; j = (j + 1) & t.mask() {
		// The entry at j may fill the hole unless its home bucket lies
		// cyclically in (hole, j].
		home := t.bucket(t.page[t.index[j]-1])
		if (j > hole && (home <= hole || home > j)) || (j < hole && home <= hole && home > j) {
			t.index[hole] = t.index[j]
			hole = j
		}
	}
	t.index[hole] = 0
}

func (t *TLB) unlink(s int32) {
	p, n := t.prev[s], t.next[s]
	if p >= 0 {
		t.next[p] = n
	} else {
		t.head = n
	}
	if n >= 0 {
		t.prev[n] = p
	} else {
		t.tail = p
	}
}

func (t *TLB) pushFront(s int32) {
	t.prev[s], t.next[s] = -1, t.head
	if t.head >= 0 {
		t.prev[t.head] = s
	} else {
		t.tail = s
	}
	t.head = s
}

// Flush invalidates all entries.
func (t *TLB) Flush() {
	clear(t.index)
	t.head, t.tail, t.used = -1, -1, 0
}

// Coverage returns the bytes of address space the TLB can map at once.
func (t *TLB) Coverage() uint64 {
	return uint64(len(t.page)) << t.pageBits
}
