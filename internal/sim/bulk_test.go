package sim

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"streamgpp/internal/golden"
)

// modelState renders the machine's observable memory-model state: each
// cache's valid lines by set and way with their dirty and NT bits and
// their recency rank within the set (0 = most recently used), the
// TLB's resident pages from most to least recently used, and the bus,
// page walker, WC buffers and prefetchers. It leaves out bookkeeping
// that never decides a hit, a victim or a cycle (LRU tick values, TLB
// slot positions), so a rebuilt TLB or cache must reproduce it exactly.
func modelState(m *Machine) string {
	var sb strings.Builder
	ms := m.Mem
	dumpCache := func(name string, c *Cache) {
		fmt.Fprintf(&sb, "%s\n", name)
		for s := 0; s < c.nsets; s++ {
			lru := c.lru[s*c.ways : (s+1)*c.ways]
			for w := 0; w < c.ways; w++ {
				bit := uint64(1) << w
				if c.valid[s]&bit == 0 {
					continue
				}
				rank := 0
				for o := 0; o < c.ways; o++ {
					if c.valid[s]&(1<<o) != 0 && lru[o] > lru[w] {
						rank++
					}
				}
				fmt.Fprintf(&sb, "  set=%d way=%d tag=%x dirty=%v nt=%v rank=%d\n", s, w, c.tags[s*c.ways+w]>>1,
					c.dirty[s]&bit != 0, c.nt[s]&bit != 0, rank)
			}
		}
	}
	dumpCache("L1", ms.L1)
	dumpCache("L2", ms.L2)
	fmt.Fprintf(&sb, "TLB pages (MRU first):")
	for s := ms.TLB.head; s >= 0; s = ms.TLB.next[s] {
		fmt.Fprintf(&sb, " %x", ms.TLB.page[s])
	}
	sb.WriteString("\n")
	b := ms.Bus
	fmt.Fprintf(&sb, "bus busy=%d row=%x hasRow=%v lastUse=%v\n", b.busyUntil, b.lastRow, b.hasRow, b.lastUse)
	fmt.Fprintf(&sb, "walkerBusy=%d wc=%+v\n", ms.walkerBusy, ms.wc)
	for i, pf := range ms.PF {
		fmt.Fprintf(&sb, "PF%d tick=%d streams=%+v pending=[", i, pf.tick, pf.streams)
		lines := make([]Addr, 0, len(pf.pending))
		for l := range pf.pending {
			lines = append(lines, l)
		}
		sort.Slice(lines, func(a, b int) bool { return lines[a] < lines[b] })
		for _, l := range lines {
			fmt.Fprintf(&sb, " %x:%d", l, pf.pending[l])
		}
		fmt.Fprintf(&sb, " ]\n")
	}
	fmt.Fprintf(&sb, "epoch=%d\n", m.epoch)
	return sb.String()
}

// statsText renders every counter block of s field by field.
func statsText(s MachineStats) string {
	return fmt.Sprintf("L1=%+v L2=%+v TLB=%+v Bus=%+v Mem=%+v PF=%+v BW=%+v", s.L1, s.L2, s.TLB, s.Bus, s.Mem, s.PF, s.BW)
}

// scenarioDigest condenses one scenario's run statistics, counters and
// final model state into a golden line.
func scenarioDigest(name string, m *Machine, runs []RunStats) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v\n%s\n%s", runs, statsText(m.StatsSnapshot()), modelState(m))))
	var cycles []uint64
	for _, r := range runs {
		cycles = append(cycles, r.Cycles)
	}
	return fmt.Sprintf("%s cycles=%v state=%x\n", name, cycles, h[:12])
}

// bulkScenario drives one machine through a scripted workload mixing
// bulk patterns with scalar traffic, and returns per-run summaries.
type bulkScenario struct {
	name string
	run  func(m *Machine, base Addr) []RunStats
}

func bulkScenarios() []bulkScenario {
	// All scenarios below allocate from a single large region whose
	// base the caller passes in.
	seqRefs := func(base Addr, elem, stride int, hint Hint) []BulkRef {
		return []BulkRef{
			{Base: base, Size: elem, Stride: stride, Write: false, Hint: hint},
			{Base: base + 1<<20, Size: elem, Stride: elem, Write: true, Hint: HintNone},
		}
	}
	return []bulkScenario{
		{"seq-gather-nt", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				p.AccessBulk(4000, seqRefs(base, 8, 8, HintNonTemporal)...)
				p.Drain()
			})
			return []RunStats{st}
		}},
		{"seq-gather-temporal", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(4, 1, StateMemory)
				p.AccessBulk(4000, seqRefs(base, 8, 8, HintNone)...)
				p.Drain()
			})
			return []RunStats{st}
		}},
		{"strided-gather", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				// Record stride larger than the field: a strided walk
				// with both aligned and line-crossing field sizes.
				p.AccessBulk(1500, seqRefs(base+4, 12, 40, HintNonTemporal)...)
				p.Drain()
			})
			return []RunStats{st}
		}},
		{"nt-scatter-store", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				p.AccessBulk(4000,
					BulkRef{Base: base + 2<<20, Size: 8, Stride: 8, Write: false, Hint: HintNone},
					BulkRef{Base: base, Size: 8, Stride: 8, Write: true, Hint: HintNonTemporal})
				p.Drain()
				c.DrainWC()
			})
			return []RunStats{st}
		}},
		{"scatter-add", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				p.AccessBulk(3000,
					BulkRef{Base: base + 2<<20, Size: 8, Stride: 8, Write: false, Hint: HintNone},
					BulkRef{Base: base, Size: 8, Stride: 8, Write: false, Hint: HintNone},
					BulkRef{Base: base, Size: 8, Stride: 8, Write: true, Hint: HintNone})
				p.Drain()
			})
			return []RunStats{st}
		}},
		{"unaligned-odd-sizes", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(3, 2, StateMemory)
				// Misaligned base and a size that periodically crosses
				// both L1 lines and pages.
				p.AccessBulk(2000, BulkRef{Base: base + 3, Size: 24, Stride: 24, Write: false, Hint: HintNonTemporal})
				p.AccessBulk(2000, BulkRef{Base: base + 5, Size: 20, Stride: 52, Write: true, Hint: HintNonTemporal})
				p.Drain()
				c.DrainWC()
			})
			return []RunStats{st}
		}},
		{"bulk-interleaved-scalar", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				for rep := 0; rep < 8; rep++ {
					p.AccessBulk(300, seqRefs(base+Addr(rep*2400), 8, 8, HintNonTemporal)...)
					// Indexed-style scalar traffic between strips, reusing
					// pages the bulk pattern touched.
					for i := 0; i < 50; i++ {
						p.Access(base+Addr((i*7919)%40000), 8, i%3 == 0, HintNone)
					}
					c.Compute(500)
				}
				p.Drain()
			})
			return []RunStats{st}
		}},
		{"two-ctx-overlap", func(m *Machine, base Addr) []RunStats {
			st := m.Run(
				func(c *CPU) {
					p := c.NewPipe(2, 1, StateMemory)
					for rep := 0; rep < 6; rep++ {
						p.AccessBulk(500, seqRefs(base, 8, 8, HintNonTemporal)...)
						c.Compute(800)
					}
					p.Drain()
				},
				func(c *CPU) {
					p := c.NewPipe(2, 1, StateMemory)
					for rep := 0; rep < 6; rep++ {
						p.AccessBulk(500,
							BulkRef{Base: base + 3<<20, Size: 8, Stride: 8, Write: true, Hint: HintNonTemporal})
						c.Compute(300)
					}
					p.Drain()
					c.DrainWC()
				})
			return []RunStats{st}
		}},
		{"two-ctx-shared-lines", func(m *Machine, base Addr) []RunStats {
			// Both contexts stream over the same region, so one
			// context's fills and evictions hit the other's lines
			// mid-bulk.
			st := m.Run(
				func(c *CPU) {
					p := c.NewPipe(2, 1, StateMemory)
					p.AccessBulk(3000, seqRefs(base, 8, 8, HintNone)...)
					p.Drain()
				},
				func(c *CPU) {
					p := c.NewPipe(2, 1, StateMemory)
					p.AccessBulk(3000, seqRefs(base+64, 8, 8, HintNone)...)
					p.Drain()
				})
			return []RunStats{st}
		}},
		{"regular-loop", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateCompute)
				refs := []BulkRef{
					{Base: base, Size: 8, Stride: 8},
					{Base: base + 1<<20, Size: 8, Stride: 8},
					{Base: base + 2<<20, Size: 8, Stride: 8, Write: true},
				}
				sum := 0
				p.AccessLoop(4000, refs, 12, 60, func(i int) { sum += i })
				p.Drain()
				if sum != 4000*3999/2 {
					panic("AccessLoop body skipped an iteration")
				}
			})
			return []RunStats{st}
		}},
		{"regular-loop-shapes", func(m *Machine, base Addr) []RunStats {
			st := m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateCompute)
				// Record stride with a line-straddling field.
				p.AccessLoop(500, []BulkRef{
					{Base: base + 4, Size: 12, Stride: 96},
					{Base: base + 1<<20, Size: 8, Stride: 8, Write: true},
				}, 8, 60, nil)
				// Pure-load loop with zero ops: no compute quantum at all.
				p.AccessLoop(2000, []BulkRef{{Base: base + 3<<20, Size: 4, Stride: 4}}, 0, 0, nil)
				p.Drain()
			})
			return []RunStats{st}
		}},
		{"reset-between-runs", func(m *Machine, base Addr) []RunStats {
			var out []RunStats
			out = append(out, m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				p.AccessBulk(1000, seqRefs(base, 8, 8, HintNonTemporal)...)
				p.Drain()
			}))
			m.ResetTiming()
			out = append(out, m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				p.AccessBulk(1000, seqRefs(base, 8, 8, HintNonTemporal)...)
				p.Drain()
			}))
			m.ColdStart()
			out = append(out, m.Run(func(c *CPU) {
				p := c.NewPipe(2, 1, StateMemory)
				p.AccessBulk(1000, seqRefs(base, 8, 8, HintNonTemporal)...)
				p.Drain()
			}))
			return out
		}},
	}
}

// TestAccessBulkMatchesReference pins every scenario's run statistics,
// counters and final memory-model state to the digests the per-access
// reference path produced (testdata/bulk_scenarios.golden), on the
// paper's machine and on the improved one with its 512-entry TLB.
func TestAccessBulkMatchesReference(t *testing.T) {
	var digests strings.Builder
	for _, cfg := range []struct {
		name string
		cfg  Config
	}{
		{"pentium", PentiumD8300()},
		{"improved", ImprovedStream()},
	} {
		for _, sc := range bulkScenarios() {
			t.Run(cfg.name+"/"+sc.name, func(t *testing.T) {
				m := MustNew(cfg.cfg)
				base := m.AS.Alloc("work", 8<<20).Base
				digests.WriteString(scenarioDigest(cfg.name+"/"+sc.name, m, sc.run(m, base)))
			})
		}
	}
	golden.Check(t, "bulk_scenarios.golden", []byte(digests.String()))
}

// firstDiff returns the first differing line pair of two dumps.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		av, bv := "<eof>", "<eof>"
		if i < len(al) {
			av = al[i]
		}
		if i < len(bl) {
			bv = bl[i]
		}
		if av != bv {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i, av, bv)
		}
	}
	return "no textual diff (lengths equal?)"
}
