package sim

import "fmt"

// Level identifies where an access was satisfied.
type Level uint8

// Access service levels, from fastest to slowest.
const (
	LevelL1 Level = iota
	LevelL2
	LevelPF  // satisfied by an in-flight hardware prefetch
	LevelMem // demand miss to DRAM
	LevelWC  // posted into a write-combining buffer
)

// String returns a short name for the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelPF:
		return "PF"
	case LevelMem:
		return "MEM"
	case LevelWC:
		return "WC"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// AccessResult reports when an access completes and where it hit.
type AccessResult struct {
	Done  uint64
	Level Level
}

// MemSystem composes the shared L1, L2, TLB, bus/DRAM, per-context
// prefetchers and per-context write-combining buffers into the memory
// hierarchy seen by both hardware contexts.
type MemSystem struct {
	cfg Config
	L1  *Cache
	L2  *Cache
	TLB *TLB
	Bus *Bus
	PF  [2]*Prefetcher

	wc [2]wcBuffer

	// The Pentium 4 has a single hardware page walker; concurrent TLB
	// misses serialise on it, which caps random-access throughput for
	// stream and regular code alike.
	walkerBusy uint64

	Stats MemStats

	// BW attributes bytes moved and cycles occupied per level to the
	// requesting context (see bandwidth.go). Indexed by context id.
	BW [2]BWStats
}

// wcBuffer is a one-line write-combining buffer (movntq path).
type wcBuffer struct {
	line  Addr
	bytes int
	open  bool
}

// MemStats aggregates access counts by service level.
type MemStats struct {
	Accesses  uint64
	ByLevel   [5]uint64
	TLBWalks  uint64
	WCFlushes uint64
	WCPartial uint64
}

// NewMemSystem builds the hierarchy from cfg. cfg must validate.
func NewMemSystem(cfg Config) *MemSystem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ms := &MemSystem{
		cfg: cfg,
		L1:  NewCache("L1", cfg.L1Bytes, cfg.L1Ways, cfg.L1Line, 1),
		L2:  NewCache("L2", cfg.L2Bytes, cfg.L2Ways, cfg.L2Line, cfg.L2NTWays),
		TLB: NewTLB(cfg.TLBEntries, cfg.PageBytes),
		Bus: NewBus(cfg),
	}
	ms.PF[0] = NewPrefetcher(cfg)
	ms.PF[1] = NewPrefetcher(cfg)
	ms.Bus.bw = &ms.BW
	return ms
}

// Config returns the machine configuration.
func (ms *MemSystem) Config() Config { return ms.cfg }

// Access performs one memory access for hardware context ctx, ready to
// issue at start. It models the full hierarchy and returns the
// completion time plus the level that satisfied the access. Accesses
// larger than an L1 line are split; the slowest chunk dominates.
//
// Semantics by (write, hint):
//   - read, HintNone: demand load; trains the hardware prefetcher.
//   - read, HintNonTemporal: software prefetchnta-style load. Fills
//     only the restricted NT ways of L2 (so the pinned SRF survives),
//     does not train the hardware prefetcher, and — because software
//     prefetch runs ahead of the consuming copy loop — hides the
//     demand lookup/lead latency, paying only translation plus bus
//     occupancy.
//   - write, HintNone: write-allocate store; a miss performs a
//     read-for-ownership line fill (this is what halves sequential
//     store bandwidth, Fig. 5c).
//   - write, HintNonTemporal: movntq-style store posted into a
//     write-combining buffer; completes immediately, with the buffer
//     flushed to the bus on line switch or DrainWC.
func (ms *MemSystem) Access(ctx int, start uint64, addr Addr, size int, write bool, hint Hint) AccessResult {
	if size <= 0 {
		panic(fmt.Sprintf("sim: access size %d", size))
	}
	res := AccessResult{Done: start, Level: LevelL1}
	lineSz := uint64(ms.cfg.L1Line)
	for cur := addr; cur < addr+uint64(size); {
		chunkEnd := (cur &^ (lineSz - 1)) + lineSz
		if end := addr + uint64(size); chunkEnd > end {
			chunkEnd = end
		}
		r := ms.accessChunk(ctx, start, cur, int(chunkEnd-cur), write, hint)
		if r.Done > res.Done {
			res.Done = r.Done
		}
		if r.Level > res.Level {
			res.Level = r.Level
		}
		cur = chunkEnd
	}
	return res
}

// accessChunk handles an access confined to one L1 line. Besides the
// machine-global MemStats it attributes bytes and occupied cycles to
// the requesting context per service level (BW); DRAM occupancy is
// attributed inside Bus.Acquire, so the LevelMem row here records
// nothing directly.
func (ms *MemSystem) accessChunk(ctx int, start uint64, addr Addr, size int, write bool, hint Hint) AccessResult {
	ms.Stats.Accesses++
	bw := &ms.BW[ctx]

	// Non-temporal stores bypass the cache hierarchy entirely.
	if write && hint == HintNonTemporal {
		done := ms.ntStore(ctx, start, addr, size)
		ms.Stats.ByLevel[LevelWC]++
		bw.Bytes[LevelWC] += uint64(size)
		bw.Cycles[LevelWC]++ // posted: one cycle to lodge in the buffer
		return AccessResult{Done: done, Level: LevelWC}
	}

	t := ms.translate(ctx, start, addr)

	if ms.L1.Lookup(addr, write) {
		ms.Stats.ByLevel[LevelL1]++
		bw.Bytes[LevelL1] += uint64(size)
		bw.Cycles[LevelL1] += ms.cfg.L1HitLat
		return AccessResult{Done: t + ms.cfg.L1HitLat, Level: LevelL1}
	}

	l2line := ms.L2.LineAddr(addr)
	if ms.L2.Lookup(addr, write) {
		ms.fillL1(ctx, addr, write)
		ms.Stats.ByLevel[LevelL2]++
		bw.Bytes[LevelL2] += uint64(ms.cfg.L1Line)
		bw.Cycles[LevelL2] += ms.cfg.L2HitLat
		return AccessResult{Done: t + ms.cfg.L2HitLat, Level: LevelL2}
	}

	// An in-flight hardware prefetch may cover this line. The hit
	// advances the stream's detector so the prefetcher stays PFDepth
	// lines ahead — as long as the detector survives the table.
	if arrival, ok := ms.PF[ctx].Claim(l2line); ok {
		ms.PF[ctx].Advance(ctx, ms.Bus, t, l2line, ms.cfg.L2Line, false)
		ms.fillL2(ctx, l2line, write, HintNone)
		ms.fillL1(ctx, addr, write)
		ms.Stats.ByLevel[LevelPF]++
		bw.Bytes[LevelPF] += uint64(ms.cfg.L2Line)
		bw.Cycles[LevelPF] += ms.cfg.L2HitLat
		return AccessResult{Done: max64(t, arrival) + ms.cfg.L2HitLat, Level: LevelPF}
	}

	// Demand miss to DRAM.
	ms.Stats.ByLevel[LevelMem]++
	var done uint64
	if hint == HintNonTemporal && !write {
		// Software-prefetched stream: latency already hidden by
		// prefetch distance; only translation + bus occupancy remain.
		busDone := ms.Bus.Acquire(ctx, t, l2line, ms.cfg.L2Line, xferNTFetch)
		done = busDone
	} else {
		lookupDone := t + ms.cfg.L2HitLat
		busDone := ms.Bus.Acquire(ctx, lookupDone, l2line, ms.cfg.L2Line, xferFill)
		done = busDone + ms.cfg.DRAMLat
		ms.PF[ctx].Advance(ctx, ms.Bus, done, l2line, ms.cfg.L2Line, true)
	}
	ms.fillL2(ctx, l2line, write, hint)
	ms.fillL1(ctx, addr, write)
	return AccessResult{Done: done, Level: LevelMem}
}

// translate charges TLB behaviour and returns the time after
// translation. Page walks serialise on the single hardware walker;
// each walk's latency is attributed to the requesting context.
func (ms *MemSystem) translate(ctx int, start uint64, addr Addr) uint64 {
	if ms.TLB.Translate(addr) {
		return start
	}
	ms.Stats.TLBWalks++
	bw := &ms.BW[ctx]
	bw.TLBWalks++
	bw.TLBWalkCycles += ms.cfg.TLBWalkLat
	walkStart := max64(start, ms.walkerBusy)
	done := walkStart + ms.cfg.TLBWalkLat
	ms.walkerBusy = done
	return done
}

// fillL2 installs a line its caller just missed on, issuing a writeback
// for any dirty victim.
func (ms *MemSystem) fillL2(ctx int, line Addr, write bool, hint Hint) {
	ev := ms.L2.fillMiss(line, write, hint)
	if ev.Valid && ev.Dirty {
		ms.Bus.Acquire(ctx, ms.Bus.BusyUntil(), ev.Line, ms.cfg.L2Line, xferWB)
	}
}

// fillL1 installs the L1 line for addr, which the caller just missed
// on. Dirty L1 victims write back into L2 (modelled as free: L2 is
// inclusive enough for our purposes).
func (ms *MemSystem) fillL1(ctx int, addr Addr, write bool) {
	ms.L1.fillMiss(ms.L1.LineAddr(addr), write, HintNone)
}

// ntStore posts a non-temporal store into the context's write-combining
// buffer. Stores complete immediately (posted); flushes reserve bus
// occupancy asynchronously.
func (ms *MemSystem) ntStore(ctx int, start uint64, addr Addr, size int) uint64 {
	t := ms.translate(ctx, start, addr)
	line := ms.L2.LineAddr(addr)
	wc := &ms.wc[ctx]
	if wc.open && wc.line == line {
		wc.bytes += size
		if wc.bytes >= ms.cfg.L2Line {
			ms.flushWC(ctx, t)
		}
		return t + 1
	}
	if wc.open {
		ms.flushWC(ctx, t)
	}
	*wc = wcBuffer{line: line, bytes: size, open: true}
	return t + 1
}

// flushWC empties the context's write-combining buffer onto the bus.
func (ms *MemSystem) flushWC(ctx int, now uint64) {
	wc := &ms.wc[ctx]
	if !wc.open {
		return
	}
	kind := xferWCFull
	bytes := ms.cfg.L2Line
	if wc.bytes < ms.cfg.L2Line {
		// A partial flush becomes a read-modify-write at the memory
		// controller: dearer than a full-line burst.
		kind = xferWCPart
		ms.Stats.WCPartial++
	}
	ms.Stats.WCFlushes++
	ms.Bus.Acquire(ctx, now, wc.line, bytes, kind)
	wc.open = false
}

// DrainWC flushes the context's write-combining buffer (an sfence at
// the end of a scatter) and returns when the bus transfer completes.
func (ms *MemSystem) DrainWC(ctx int, now uint64) uint64 {
	ms.flushWC(ctx, now)
	return max64(now, ms.Bus.BusyUntil())
}

// FlushAll empties caches, TLB, prefetchers and WC buffers, for
// independent back-to-back experiments on one machine.
func (ms *MemSystem) FlushAll() {
	ms.L1.Flush()
	ms.L2.Flush()
	ms.TLB.Flush()
	ms.PF[0].Reset()
	ms.PF[1].Reset()
	ms.wc[0] = wcBuffer{}
	ms.wc[1] = wcBuffer{}
}
