package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// fuzzOp is one step of a scripted workload. The script is generated
// from the fuzz seed before either machine runs, so both executions
// replay the same access sequence.
type fuzzOp struct {
	kind    int // 0 bulk, 1 loop, 2 scalar, 3 compute
	n       int
	refs    []BulkRef
	ops     int64
	overlap uint64
	addrs   []Addr // scalar op
	writes  []bool // scalar op
	compute int64
}

// fuzzRefs draws 1..4 bulk refs with adversarial shapes: misaligned
// bases, field sizes from 1 byte to beyond a cache line, strides from
// 0 (scatter-add style) to page-crossing, mixed hints and writes.
func fuzzRefs(rng *rand.Rand, base Addr) []BulkRef {
	nrefs := 1 + rng.Intn(4)
	refs := make([]BulkRef, nrefs)
	for i := range refs {
		hint := HintNone
		if rng.Intn(3) == 0 {
			hint = HintNonTemporal
		}
		refs[i] = BulkRef{
			Base:   base + Addr(rng.Intn(4<<20)),
			Size:   1 + rng.Intn(80),
			Stride: rng.Intn(130),
			Write:  rng.Intn(3) == 0,
			Hint:   hint,
		}
	}
	return refs
}

// buildFuzzScript turns a seed into a bounded workload script.
func buildFuzzScript(rng *rand.Rand) []fuzzOp {
	nops := 2 + rng.Intn(6)
	script := make([]fuzzOp, 0, nops)
	for i := 0; i < nops; i++ {
		var op fuzzOp
		op.kind = rng.Intn(4)
		switch op.kind {
		case 0:
			op.n = 1 + rng.Intn(1200)
			op.refs = fuzzRefs(rng, 0)
		case 1:
			op.n = 1 + rng.Intn(1200)
			op.refs = fuzzRefs(rng, 0)
			op.ops = int64(rng.Intn(30))
			op.overlap = uint64(rng.Intn(120))
		case 2:
			op.n = 1 + rng.Intn(200)
			op.addrs = make([]Addr, op.n)
			op.writes = make([]bool, op.n)
			for j := range op.addrs {
				op.addrs[j] = Addr(rng.Intn(4 << 20))
				op.writes[j] = rng.Intn(4) == 0
			}
		default:
			op.compute = int64(1 + rng.Intn(2000))
		}
		script = append(script, op)
	}
	return script
}

// replayFuzzScript executes the script on one machine. With literal
// set, bulk and loop ops run as the loop nests AccessBulk and
// AccessLoop document, written out here access by access.
func replayFuzzScript(m *Machine, script []fuzzOp, literal bool) RunStats {
	base := m.AS.Alloc("fuzz", 8<<20).Base
	return m.Run(func(c *CPU) {
		p := c.NewPipe(2, 1, StateMemory)
		for _, op := range script {
			refs := append([]BulkRef(nil), op.refs...)
			for j := range refs {
				refs[j].Base += base
			}
			switch {
			case op.kind == 0 && !literal:
				p.AccessBulk(op.n, refs...)
			case op.kind == 0:
				for k := 0; k < op.n; k++ {
					for _, r := range refs {
						p.Access(r.Base+Addr(k*r.Stride), r.Size, r.Write, r.Hint)
					}
				}
			case op.kind == 1 && !literal:
				p.AccessLoop(op.n, refs, op.ops, op.overlap, nil)
			case op.kind == 1:
				for i := 0; i < op.n; i++ {
					var readsDone uint64
					for _, r := range refs {
						res := p.Access(r.Base+Addr(i*r.Stride), r.Size, r.Write, r.Hint)
						if !r.Write && res.Done > readsDone {
							readsDone = res.Done
						}
					}
					if op.ops > 0 {
						if readsDone > op.overlap {
							c.StallUntil(readsDone - op.overlap)
						}
						c.Compute(op.ops)
					}
				}
			case op.kind == 2:
				for j := range op.addrs {
					p.Access(base+op.addrs[j], 8, op.writes[j], HintNone)
				}
			default:
				c.Compute(op.compute)
			}
		}
		p.Drain()
		c.DrainWC()
	})
}

// FuzzAccessBulk holds AccessBulk and AccessLoop to the loop nests they
// document: any mix of bulk shapes, regular loops and scalar traffic
// must leave the machine in the same state — run statistics,
// counters and memory-model state — whether the bulk ops go through
// the API or are written out access by access.
func FuzzAccessBulk(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1234, 99999} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		script := buildFuzzScript(rand.New(rand.NewSource(seed)))
		run := func(literal bool) (*Machine, RunStats) {
			m := MustNew(PentiumD8300())
			return m, replayFuzzScript(m, script, literal)
		}
		apiM, apiStats := run(false)
		litM, litStats := run(true)
		if got, want := fmt.Sprintf("%+v", apiStats), fmt.Sprintf("%+v", litStats); got != want {
			t.Errorf("seed %d: RunStats diverge:\n    api: %s\nliteral: %s", seed, got, want)
		}
		if got, want := apiM.StatsSnapshot(), litM.StatsSnapshot(); got != want {
			t.Errorf("seed %d: MachineStats diverge:\n    api: %+v\nliteral: %+v", seed, got, want)
		}
		if a, b := modelState(apiM), modelState(litM); a != b {
			t.Errorf("seed %d: model state diverges:\n%s", seed, firstDiff(a, b))
		}
	})
}
