package svm

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"streamgpp/internal/golden"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
)

// opsDigest condenses one bulk operation's cycles, machine counters and
// metrics into a golden line.
func opsDigest(name string, cycles uint64, s sim.MachineStats, snap obs.Snapshot) string {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "L1=%+v L2=%+v TLB=%+v Bus=%+v Mem=%+v PF=%+v BW=%+v\n", s.L1, s.L2, s.TLB, s.Bus, s.Mem, s.PF, s.BW)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%+v\n", k, snap[k])
	}
	h := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("%s cycles=%d state=%x\n", name, cycles, h[:12])
}

// TestBulkOpsFastPathMatchesReference sweeps every bulk-operation shape
// — {sequential, strided, indexed} × {temporal, non-temporal} × {load,
// store, scatter-add} — and pins each one's cycles, MachineStats and
// obs-registry contents to the digests the simulator's per-access
// reference path produced (testdata/bulk_ops.golden). The digests were
// recorded while a bulk fast path still existed beside that path, and
// the single memory model must keep reproducing them.
func TestBulkOpsFastPathMatchesReference(t *testing.T) {
	type variant struct {
		pattern string // "seq", "strided", "indexed"
		hint    sim.Hint
		op      string // "load", "store", "scatter-add"
	}
	var variants []variant
	for _, pattern := range []string{"seq", "strided", "indexed"} {
		for _, hint := range []sim.Hint{sim.HintNone, sim.HintNonTemporal} {
			for _, op := range []string{"load", "store", "scatter-add"} {
				variants = append(variants, variant{pattern, hint, op})
			}
		}
	}

	const n = 3000
	runOne := func(v variant) (uint64, sim.MachineStats, obs.Snapshot) {
		m := sim.MustNew(sim.PentiumD8300())
		reg := obs.NewRegistry()
		m.SetObserver(reg)

		layout := Layout("rec", F("a", 8), F("b", 8), F("pad", 8))
		if v.pattern == "strided" {
			layout = layout.WithStride(56)
		}
		arr := NewArray(m, "arr", layout, 2*n)
		srf := DefaultSRF(m)
		buf, err := srf.Alloc("strip", 16*n)
		if err != nil {
			t.Fatal(err)
		}
		str := NewStream("s", n, F("a", 8), F("b", 8))
		for i := range str.Data {
			str.Data[i] = float64(i)
		}
		var idx *IndexArray
		if v.pattern == "indexed" {
			idx = NewIndexArray(m, "idx", n)
			for i := range idx.Idx {
				idx.Idx[i] = int32((i * 7919) % (2 * n)) // deterministic pseudo-random
			}
		}

		cfg := DefaultOps()
		cfg.Hint = v.hint
		fields := []int{0, 1}

		stats := m.Run(func(c *sim.CPU) {
			switch v.op {
			case "load":
				Gather(c, cfg, str, 0, arr, fields, 17, idx, 0, n, buf)
			case "store":
				Scatter(c, cfg, str, 0, arr, fields, 17, idx, 0, n, ModeStore, buf)
			case "scatter-add":
				Scatter(c, cfg, str, 0, arr, fields, 17, idx, 0, n, ModeAdd, buf)
			}
		})
		return stats.Cycles, m.StatsSnapshot(), reg.Snapshot()
	}

	var digests strings.Builder
	for _, v := range variants {
		name := fmt.Sprintf("%s-%s-%s", v.pattern, hintName(v.hint), v.op)
		t.Run(name, func(t *testing.T) {
			cycles, stats, snap := runOne(v)
			digests.WriteString(opsDigest(name, cycles, stats, snap))
		})
	}
	golden.Check(t, "bulk_ops.golden", []byte(digests.String()))
}

func hintName(h sim.Hint) string {
	if h == sim.HintNonTemporal {
		return "nt"
	}
	return "temporal"
}
