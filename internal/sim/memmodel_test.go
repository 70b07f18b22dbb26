package sim

import (
	"math/rand"
	"testing"
)

// refMem is the memory model written a second time, from DESIGN.md §5
// and MemSystem.Access's contract, with the plainest data structures:
// a map for the TLB, scanned slices for the caches, and a tick per
// touch for LRU. It shares only the bus and the prefetchers with the
// model under test (fresh instances of each), so a per-access match
// checks the TLB, both caches and the hierarchy walk.
type refMem struct {
	cfg        Config
	tick       uint64
	tlb        map[Addr]uint64 // page → last-use tick
	l1, l2     refCache
	walkerBusy uint64
	wc         [2]wcBuffer
	bus        *Bus
	pf         [2]*Prefetcher
}

type refLine struct {
	line             Addr
	valid, dirty, nt bool
	used             uint64
}

// refCache is one cache: sets of ways, LRU by last-use tick. NT fills
// may only take the first ntWays ways of a set.
type refCache struct {
	line, sets, ways, ntWays int
	l                        []refLine
}

func newRefMem(cfg Config) *refMem {
	m := &refMem{cfg: cfg, tlb: map[Addr]uint64{}, bus: NewBus(cfg),
		l1: refCache{cfg.L1Line, cfg.L1Bytes / (cfg.L1Ways * cfg.L1Line), cfg.L1Ways, 1, nil},
		l2: refCache{cfg.L2Line, cfg.L2Bytes / (cfg.L2Ways * cfg.L2Line), cfg.L2Ways, cfg.L2NTWays, nil}}
	m.pf = [2]*Prefetcher{NewPrefetcher(cfg), NewPrefetcher(cfg)}
	m.flush()
	return m
}

func (m *refMem) flush() {
	clear(m.tlb)
	m.l1.l = make([]refLine, m.l1.sets*m.l1.ways)
	m.l2.l = make([]refLine, m.l2.sets*m.l2.ways)
	m.pf[0].Reset()
	m.pf[1].Reset()
	m.wc = [2]wcBuffer{}
}

// set returns the ways of the set holding addr, and addr's line.
func (m *refMem) set(c *refCache, addr Addr) ([]refLine, Addr) {
	line := addr / Addr(c.line) * Addr(c.line)
	s := int(line/Addr(c.line)) % c.sets
	return c.l[s*c.ways : (s+1)*c.ways], line
}

// lookup reports a hit, refreshing LRU and applying the write.
func (m *refMem) lookup(c *refCache, addr Addr, write bool) bool {
	ways, line := m.set(c, addr)
	for i := range ways {
		if ways[i].valid && ways[i].line == line {
			m.tick++
			ways[i].used = m.tick
			ways[i].dirty = ways[i].dirty || write
			return true
		}
	}
	return false
}

// fill installs addr's line: the first invalid candidate way, else the
// least recently used NT line among the candidates, else the least
// recently used line. It returns the victim.
func (m *refMem) fill(c *refCache, addr Addr, write bool, hint Hint) refLine {
	ways, line := m.set(c, addr)
	n := c.ways
	if hint == HintNonTemporal && c.ntWays > 0 {
		n = c.ntWays
	}
	v := -1
	for pass := 0; pass < 3 && v < 0; pass++ {
		for i := 0; i < n; i++ {
			w := ways[i]
			ok := [3]bool{!w.valid, w.valid && w.nt, w.valid}[pass]
			if ok && (v < 0 || pass > 0 && w.used < ways[v].used) {
				v = i
				if pass == 0 {
					break
				}
			}
		}
	}
	old := ways[v]
	m.tick++
	ways[v] = refLine{line: line, valid: true, dirty: write, nt: hint == HintNonTemporal, used: m.tick}
	return old
}

func (m *refMem) translate(start uint64, addr Addr) uint64 {
	page := addr / Addr(m.cfg.PageBytes)
	m.tick++
	if _, ok := m.tlb[page]; ok {
		m.tlb[page] = m.tick
		return start
	}
	if len(m.tlb) == m.cfg.TLBEntries {
		var lru Addr
		first := true
		for p, used := range m.tlb {
			if first || used < m.tlb[lru] {
				lru, first = p, false
			}
		}
		delete(m.tlb, lru)
	}
	m.tlb[page] = m.tick
	m.walkerBusy = max64(start, m.walkerBusy) + m.cfg.TLBWalkLat
	return m.walkerBusy
}

func (m *refMem) flushWC(ctx int, now uint64) {
	if wc := &m.wc[ctx]; wc.open {
		kind := xferWCFull
		if wc.bytes < m.cfg.L2Line {
			kind = xferWCPart
		}
		m.bus.Acquire(ctx, now, wc.line, m.cfg.L2Line, kind)
		wc.open = false
	}
}

// access performs one access confined to one L1 line.
func (m *refMem) access(ctx int, start uint64, addr Addr, size int, write bool, hint Hint) AccessResult {
	cfg := m.cfg
	t := m.translate(start, addr)
	l2line := addr / Addr(cfg.L2Line) * Addr(cfg.L2Line)
	if write && hint == HintNonTemporal {
		wc := &m.wc[ctx]
		if !wc.open || wc.line != l2line {
			m.flushWC(ctx, t)
			*wc = wcBuffer{line: l2line, open: true}
		}
		if wc.bytes += size; wc.bytes >= cfg.L2Line {
			m.flushWC(ctx, t)
		}
		return AccessResult{Done: t + 1, Level: LevelWC}
	}
	if m.lookup(&m.l1, addr, write) {
		return AccessResult{Done: t + cfg.L1HitLat, Level: LevelL1}
	}
	if m.lookup(&m.l2, addr, write) {
		m.fill(&m.l1, addr, write, HintNone)
		return AccessResult{Done: t + cfg.L2HitLat, Level: LevelL2}
	}
	res := AccessResult{Level: LevelMem}
	fillHint := hint
	if arrival, ok := m.pf[ctx].Claim(l2line); ok {
		m.pf[ctx].Advance(ctx, m.bus, t, l2line, cfg.L2Line, false)
		res, fillHint = AccessResult{Done: max64(t, arrival) + cfg.L2HitLat, Level: LevelPF}, HintNone
	} else if hint == HintNonTemporal {
		res.Done = m.bus.Acquire(ctx, t, l2line, cfg.L2Line, xferNTFetch)
	} else {
		res.Done = m.bus.Acquire(ctx, t+cfg.L2HitLat, l2line, cfg.L2Line, xferFill) + cfg.DRAMLat
		m.pf[ctx].Advance(ctx, m.bus, res.Done, l2line, cfg.L2Line, true)
	}
	if old := m.fill(&m.l2, l2line, write, fillHint); old.valid && old.dirty {
		m.bus.Acquire(ctx, m.bus.BusyUntil(), old.line, cfg.L2Line, xferWB)
	}
	m.fill(&m.l1, addr, write, HintNone)
	return res
}

// memOp is one step of a FuzzMemModel workload.
type memOp struct {
	ctx         int
	addr        Addr
	size        int
	write       bool
	hint        Hint
	flush, sync bool // FlushAll, or DrainWC on ctx
}

// memWorkload draws strided walks, permutations over more pages than
// the TLB holds, scalar hot spots, NT loads and stores, WC drains and
// whole-hierarchy flushes, from both contexts.
func memWorkload(rng *rand.Rand) []memOp {
	var ops []memOp
	for len(ops) < 3000 {
		ctx := rng.Intn(2)
		base := Addr(rng.Intn(1 << 24))
		size := []int{1, 4, 8, 16, 24, 64, 100}[rng.Intn(7)]
		write, hint := rng.Intn(3) == 0, HintNone
		if rng.Intn(3) == 0 {
			hint = HintNonTemporal
		}
		n := 1 + rng.Intn(400)
		switch rng.Intn(6) {
		case 0, 1: // strided walk
			stride := Addr([]int{0, 4, 8, 64, 128, 200, 4096, 4160}[rng.Intn(8)])
			for i := 0; i < n; i++ {
				ops = append(ops, memOp{ctx: ctx, addr: base + Addr(i)*stride, size: size, write: write, hint: hint})
			}
		case 2: // random permutation of records spread over many pages
			rec := Addr(8 << rng.Intn(10))
			for _, i := range rng.Perm(n) {
				ops = append(ops, memOp{ctx: ctx, addr: base + Addr(i)*rec, size: size, write: rng.Intn(4) == 0, hint: hint})
			}
		case 3: // scalar traffic over a small hot region
			for i := 0; i < n; i++ {
				ops = append(ops, memOp{ctx: ctx, addr: base + Addr(rng.Intn(1<<14)), size: 8, write: rng.Intn(2) == 0})
			}
		case 4:
			ops = append(ops, memOp{ctx: ctx, sync: true})
		default:
			if rng.Intn(4) == 0 {
				ops = append(ops, memOp{flush: true})
			}
		}
	}
	return ops
}

// FuzzMemModel drives one workload through MemSystem and through the
// naive refMem, and requires every access to complete at the same
// cycle at the same level, on the paper's 64-entry TLB and on the
// improved machine's 512-entry one.
func FuzzMemModel(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1234} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := PentiumD8300()
		if rng.Intn(2) == 0 {
			cfg = ImprovedStream()
		}
		ms, ref := NewMemSystem(cfg), newRefMem(cfg)
		var now uint64
		for i, op := range memWorkload(rng) {
			switch {
			case op.flush:
				ms.FlushAll()
				ref.flush()
				continue
			case op.sync:
				got := ms.DrainWC(op.ctx, now)
				ref.flushWC(op.ctx, now)
				if want := max64(now, ref.bus.BusyUntil()); got != want {
					t.Fatalf("seed %d op %d: DrainWC done %d, reference %d", seed, i, got, want)
				}
				continue
			}
			got := ms.Access(op.ctx, now, op.addr, op.size, op.write, op.hint)
			want := AccessResult{Done: now, Level: LevelL1}
			line := Addr(cfg.L1Line)
			for cur, end := op.addr, op.addr+Addr(op.size); cur < end; cur = cur/line*line + line {
				chunk := min(end, cur/line*line+line) - cur
				r := ref.access(op.ctx, now, cur, int(chunk), op.write, op.hint)
				want.Done, want.Level = max(want.Done, r.Done), max(want.Level, r.Level)
			}
			if got != want {
				t.Fatalf("seed %d op %d %+v at cycle %d: got %+v, reference %+v", seed, i, op, now, got, want)
			}
			now += 1 + uint64(rng.Intn(3))*(got.Done-now)/2
		}
	})
}
