package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// Per-layer microbenchmarks: one TLB translation, one cache lookup (and
// the fill a miss implies), one MemSystem access, one engine context
// switch. Addresses are drawn up front, so the loop times only the
// layer. Run with
//
//	go test ./internal/sim -run '^$' -bench 'TLB|Cache|MemSystem|Engine'

// randomAddrs returns n addresses spread over span bytes, each aligned
// to align.
func randomAddrs(n int, span, align uint64) []Addr {
	rng := rand.New(rand.NewSource(1))
	out := make([]Addr, n)
	for i := range out {
		out[i] = Addr(rng.Int63n(int64(span/align))) * align
	}
	return out
}

// BenchmarkTLBTranslate translates random pages. "hit" draws from as
// many pages as the TLB holds, so every translation hits once warm;
// "mixed" draws from twice as many, so about half miss.
func BenchmarkTLBTranslate(b *testing.B) {
	const page = 4096
	for _, entries := range []int{64, 512} {
		for _, mode := range []struct {
			name  string
			pages uint64
		}{{"hit", 1}, {"mixed", 2}} {
			b.Run(fmt.Sprintf("%s/%d", mode.name, entries), func(b *testing.B) {
				tlb := NewTLB(entries, page)
				addrs := randomAddrs(1<<16, mode.pages*uint64(entries)*page, page)
				if mode.name == "hit" {
					// Cycle through exactly the resident set.
					for i := range addrs {
						addrs[i] = Addr(i%entries) * page
					}
					rand.New(rand.NewSource(2)).Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
				}
				for _, a := range addrs {
					tlb.Translate(a)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tlb.Translate(addrs[i&(len(addrs)-1)])
				}
			})
		}
	}
}

// BenchmarkCacheLookupFill probes the paper's L2 (1 MB, 8-way, 128-byte
// lines, two NT ways) at random lines and fills every miss, as the
// hierarchy walk does. "hit" stays within half the capacity; "mixed"
// spans twice the capacity, a third of the fills non-temporal.
func BenchmarkCacheLookupFill(b *testing.B) {
	cfg := PentiumD8300()
	for _, mode := range []struct {
		name string
		span uint64
	}{{"hit", uint64(cfg.L2Bytes) / 2}, {"mixed", 2 * uint64(cfg.L2Bytes)}} {
		b.Run(mode.name, func(b *testing.B) {
			c := NewCache("L2", cfg.L2Bytes, cfg.L2Ways, cfg.L2Line, cfg.L2NTWays)
			addrs := randomAddrs(1<<16, mode.span, uint64(cfg.L2Line))
			step := func(i int) {
				a := addrs[i&(len(addrs)-1)]
				if !c.Lookup(a, i&7 == 0) {
					hint := HintNone
					if i%3 == 0 {
						hint = HintNonTemporal
					}
					c.fillMiss(a, i&7 == 0, hint)
				}
			}
			for i := range addrs {
				step(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
		})
	}
}

// BenchmarkMemSystemAccess times whole hierarchy walks on the paper's
// machine: sequential 8-byte loads, random 8-byte loads over 64 MB, and
// the same random loads with the non-temporal hint (a GAT-SCAT gather).
func BenchmarkMemSystemAccess(b *testing.B) {
	for _, mode := range []struct {
		name   string
		random bool
		hint   Hint
	}{{"seq", false, HintNone}, {"random", true, HintNone}, {"nt", true, HintNonTemporal}} {
		b.Run(mode.name, func(b *testing.B) {
			ms := NewMemSystem(PentiumD8300())
			addrs := randomAddrs(1<<16, 64<<20, 8)
			var now uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := Addr(i*8) & (64<<20 - 1)
				if mode.random {
					a = addrs[i&(len(addrs)-1)]
				}
				now = ms.Access(0, now, a, 8, false, mode.hint).Done
			}
		})
	}
}

// BenchmarkEngineSwitch times one context switch: two contexts that
// advance one cycle at a time hand control to each other on every step.
func BenchmarkEngineSwitch(b *testing.B) {
	m := MustNew(PentiumD8300())
	step := func(c *CPU) {
		for i := 0; i < b.N/2; i++ {
			c.Idle(1)
		}
	}
	b.ResetTimer()
	m.Run(step, step)
}
