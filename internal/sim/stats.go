package sim

import "streamgpp/internal/obs"

// This file gives every simulator counter block uniform
// reset/snapshot/delta semantics, aggregates them into MachineStats,
// and publishes them into an obs.Registry. Back-to-back runs on one
// Machine can now be separated either by resetting counters or by
// subtracting snapshots — previously the counters only accumulated.

// Reset zeroes the counters.
func (s *CacheStats) Reset() { *s = CacheStats{} }

// Delta returns s - prev, for separating back-to-back runs.
func (s CacheStats) Delta(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:       s.Hits - prev.Hits,
		Misses:     s.Misses - prev.Misses,
		NTFills:    s.NTFills - prev.NTFills,
		Evictions:  s.Evictions - prev.Evictions,
		DirtyEvict: s.DirtyEvict - prev.DirtyEvict,
	}
}

// Reset zeroes the counters.
func (s *BusStats) Reset() { *s = BusStats{} }

// Delta returns s - prev.
func (s BusStats) Delta(prev BusStats) BusStats {
	return BusStats{
		Transfers:  s.Transfers - prev.Transfers,
		Bytes:      s.Bytes - prev.Bytes,
		RowHits:    s.RowHits - prev.RowHits,
		RowMisses:  s.RowMisses - prev.RowMisses,
		BusyCycles: s.BusyCycles - prev.BusyCycles,
	}
}

// Reset zeroes the counters.
func (s *TLBStats) Reset() { *s = TLBStats{} }

// Delta returns s - prev.
func (s TLBStats) Delta(prev TLBStats) TLBStats {
	return TLBStats{Hits: s.Hits - prev.Hits, Misses: s.Misses - prev.Misses}
}

// Reset zeroes the counters.
func (s *MemStats) Reset() { *s = MemStats{} }

// Delta returns s - prev.
func (s MemStats) Delta(prev MemStats) MemStats {
	d := MemStats{
		Accesses:  s.Accesses - prev.Accesses,
		TLBWalks:  s.TLBWalks - prev.TLBWalks,
		WCFlushes: s.WCFlushes - prev.WCFlushes,
		WCPartial: s.WCPartial - prev.WCPartial,
	}
	for i := range s.ByLevel {
		d.ByLevel[i] = s.ByLevel[i] - prev.ByLevel[i]
	}
	return d
}

// Reset zeroes the counters.
func (s *PFStats) Reset() { *s = PFStats{} }

// Delta returns s - prev.
func (s PFStats) Delta(prev PFStats) PFStats {
	return PFStats{
		Trained:   s.Trained - prev.Trained,
		Issued:    s.Issued - prev.Issued,
		UsefulHit: s.UsefulHit - prev.UsefulHit,
		Evicted:   s.Evicted - prev.Evicted,
	}
}

// MachineStats is every counter block of the machine frozen at one
// instant.
type MachineStats struct {
	L1, L2 CacheStats
	TLB    TLBStats
	Bus    BusStats
	Mem    MemStats
	PF     [2]PFStats
	BW     [2]BWStats
}

// StatsSnapshot freezes all machine counters.
func (m *Machine) StatsSnapshot() MachineStats {
	return MachineStats{
		L1:  m.Mem.L1.Stats,
		L2:  m.Mem.L2.Stats,
		TLB: m.Mem.TLB.Stats,
		Bus: m.Mem.Bus.Stats,
		Mem: m.Mem.Stats,
		PF:  [2]PFStats{m.Mem.PF[0].Stats, m.Mem.PF[1].Stats},
		BW:  m.Mem.BW,
	}
}

// Delta returns s - prev, so one snapshot pair brackets one run.
func (s MachineStats) Delta(prev MachineStats) MachineStats {
	return MachineStats{
		L1:  s.L1.Delta(prev.L1),
		L2:  s.L2.Delta(prev.L2),
		TLB: s.TLB.Delta(prev.TLB),
		Bus: s.Bus.Delta(prev.Bus),
		Mem: s.Mem.Delta(prev.Mem),
		PF:  [2]PFStats{s.PF[0].Delta(prev.PF[0]), s.PF[1].Delta(prev.PF[1])},
		BW:  [2]BWStats{s.BW[0].Delta(prev.BW[0]), s.BW[1].Delta(prev.BW[1])},
	}
}

// BWTotal sums both contexts' bandwidth attribution.
func (s MachineStats) BWTotal() BWStats {
	t := s.BW[0]
	t.Add(s.BW[1])
	return t
}

// ResetStats zeroes every machine counter without touching timing state
// or cache/TLB contents — the missing piece that let back-to-back runs
// on one Machine conflate their counters.
func (m *Machine) ResetStats() {
	m.Mem.L1.Stats.Reset()
	m.Mem.L2.Stats.Reset()
	m.Mem.TLB.Stats.Reset()
	m.Mem.Bus.Stats.Reset()
	m.Mem.Stats.Reset()
	for i := range m.Mem.PF {
		m.Mem.PF[i].Stats.Reset()
	}
	for i := range m.Mem.BW {
		m.Mem.BW[i].Reset()
	}
}

// Publish writes the snapshot into the registry as sim.* gauges.
func (s MachineStats) Publish(r *obs.Registry) {
	cache := func(prefix string, cs CacheStats) {
		r.Gauge(prefix + ".hits").Set(float64(cs.Hits))
		r.Gauge(prefix + ".misses").Set(float64(cs.Misses))
		r.Gauge(prefix + ".nt_fills").Set(float64(cs.NTFills))
		r.Gauge(prefix + ".evictions").Set(float64(cs.Evictions))
		r.Gauge(prefix + ".dirty_evictions").Set(float64(cs.DirtyEvict))
	}
	cache("sim.l1", s.L1)
	cache("sim.l2", s.L2)
	r.Gauge("sim.tlb.hits").Set(float64(s.TLB.Hits))
	r.Gauge("sim.tlb.misses").Set(float64(s.TLB.Misses))
	r.Gauge("sim.tlb.walks").Set(float64(s.Mem.TLBWalks))
	r.Gauge("sim.bus.transfers").Set(float64(s.Bus.Transfers))
	r.Gauge("sim.bus.bytes").Set(float64(s.Bus.Bytes))
	r.Gauge("sim.bus.row_hits").Set(float64(s.Bus.RowHits))
	r.Gauge("sim.bus.row_misses").Set(float64(s.Bus.RowMisses))
	r.Gauge("sim.bus.busy_cycles").Set(float64(s.Bus.BusyCycles))
	r.Gauge("sim.mem.accesses").Set(float64(s.Mem.Accesses))
	r.Gauge("sim.mem.wc_flushes").Set(float64(s.Mem.WCFlushes))
	r.Gauge("sim.mem.wc_partial").Set(float64(s.Mem.WCPartial))
	for lvl, n := range s.Mem.ByLevel {
		r.Gauge("sim.mem.served." + Level(lvl).String()).Set(float64(n))
	}
	for i, pf := range s.PF {
		prefix := []string{"sim.pf0", "sim.pf1"}[i]
		r.Gauge(prefix + ".trained").Set(float64(pf.Trained))
		r.Gauge(prefix + ".issued").Set(float64(pf.Issued))
		r.Gauge(prefix + ".useful_hits").Set(float64(pf.UsefulHit))
		r.Gauge(prefix + ".evicted").Set(float64(pf.Evicted))
	}

	// Per-level bandwidth attribution (bandwidth.go). Every key is
	// always published, even at zero, so ledger rows carry a
	// deterministic key set.
	for i := range s.BW {
		prefix := []string{"bw.ctx0.", "bw.ctx1."}[i]
		for lvl := range s.BW[i].Bytes {
			key := prefix + LevelKey(Level(lvl))
			r.Gauge(key + ".bytes").Set(float64(s.BW[i].Bytes[lvl]))
			r.Gauge(key + ".cycles").Set(float64(s.BW[i].Cycles[lvl]))
		}
		r.Gauge(prefix + "tlb.walk_cycles").Set(float64(s.BW[i].TLBWalkCycles))
	}
	bw := s.BWTotal()
	var total uint64
	for lvl := range bw.Bytes {
		r.Gauge("bw." + LevelKey(Level(lvl)) + ".bytes").Set(float64(bw.Bytes[lvl]))
		r.Gauge("bw." + LevelKey(Level(lvl)) + ".cycles").Set(float64(bw.Cycles[lvl]))
		total += bw.Bytes[lvl]
	}
	r.Gauge("bw.total.bytes").Set(float64(total))
	r.Gauge("bw.tlb.walk_cycles").Set(float64(bw.TLBWalkCycles))
}

// defaultObserver, when set, is attached to every subsequently created
// Machine. It exists for tools (cmd/streamtrace) that need to observe
// machines created deep inside app packages; set it from one goroutine
// before any machine is built.
var defaultObserver *obs.Registry

// SetDefaultObserver installs a registry onto every Machine created
// after this call (nil turns it off again).
func SetDefaultObserver(r *obs.Registry) { defaultObserver = r }

// SetObserver attaches a metrics registry to this machine. The SVM bulk
// operations, the work queue and the executors all discover it through
// the machine and record into it; nil (the default) disables
// recording.
func (m *Machine) SetObserver(r *obs.Registry) { m.obs = r }

// Observer returns the attached registry, or nil.
func (m *Machine) Observer() *obs.Registry { return m.obs }
