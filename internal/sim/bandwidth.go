package sim

// This file is the per-context, per-level bandwidth attribution: bytes
// moved and cycles occupied at the level that served them. The
// counters are plain uint64 fields bumped inline by MemSystem and Bus,
// so the instrumentation allocates nothing and never touches a
// simulated clock.
//
// Counters are kept per hardware context, never per machine: the
// engine interleaves the two contexts' tasks in virtual time, so a
// machine-global snapshot bracketing one task would absorb the
// sibling's traffic. Each context writes only its own slot, which also
// keeps the counters race-free under the engine's one-runs-at-a-time
// scheduling.

// BWStats attributes one context's memory traffic per level: bytes
// moved and cycles the level was occupied serving them. The accounting
// model (what "occupied" means at each level) is fixed in DESIGN.md
// §13. The Bytes/Cycles arrays are indexed by Level; the LevelMem row is
// bus occupancy and covers all DRAM traffic attributable to the
// context (demand fills, dirty writebacks, WC flushes, prefetches).
type BWStats struct {
	Bytes  [5]uint64 // indexed by Level
	Cycles [5]uint64 // indexed by Level
	// TLBWalks and TLBWalkCycles attribute page-walk serialization
	// (the TLB has no byte traffic of its own).
	TLBWalks      uint64
	TLBWalkCycles uint64
}

// Reset zeroes the counters.
func (s *BWStats) Reset() { *s = BWStats{} }

// Delta returns s - prev, for bracketing one task or run.
func (s BWStats) Delta(prev BWStats) BWStats {
	d := BWStats{
		TLBWalks:      s.TLBWalks - prev.TLBWalks,
		TLBWalkCycles: s.TLBWalkCycles - prev.TLBWalkCycles,
	}
	for i := range s.Bytes {
		d.Bytes[i] = s.Bytes[i] - prev.Bytes[i]
		d.Cycles[i] = s.Cycles[i] - prev.Cycles[i]
	}
	return d
}

// Add accumulates o into s.
func (s *BWStats) Add(o BWStats) {
	s.TLBWalks += o.TLBWalks
	s.TLBWalkCycles += o.TLBWalkCycles
	for i := range s.Bytes {
		s.Bytes[i] += o.Bytes[i]
		s.Cycles[i] += o.Cycles[i]
	}
}

// bwLevelKeys names levels in flat metric keys: Level.String() yields
// display names ("MEM"), metric keys want stable lowercase ("dram").
var bwLevelKeys = [5]string{"l1", "l2", "pf", "dram", "wc"}

// LevelKey returns the flat-metric key fragment for a level (e.g.
// LevelMem → "dram").
func LevelKey(l Level) string {
	if int(l) < len(bwLevelKeys) {
		return bwLevelKeys[l]
	}
	return "unknown"
}
