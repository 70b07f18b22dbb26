package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"streamgpp/internal/apps/cdp"
	"streamgpp/internal/compiler"
	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
)

// irregularBundle holds the paper's TLB-bound random-gather cases.
func irregularBundle(seed int64) []appSpec {
	return []appSpec{
		spasApp(24000, seed),
		gatscatApp("paper", sim.PentiumD8300(), 100000, 1, seed),
		gatscatApp("improved", sim.ImprovedStream(), 100000, 1, seed),
	}
}

// streamingBundle holds the sequential and affine cases with heavy
// stores. CDP's grid is fixed; it takes no seed.
func streamingBundle(seed int64) []appSpec {
	return []appSpec{
		ldstApp(sim.PentiumD8300(), 100000, 1, seed),
		cdpApp(cdp.Grid4n8192),
		neoApp(32768, seed),
	}
}

// appPrint is what one app comparison computed: the simulated cycles
// of both versions and a digest of their outputs.
type appPrint struct {
	App           string `json:"app"`
	RegularCycles uint64 `json:"regular_cycles"`
	StreamCycles  uint64 `json:"stream_cycles"`
	Output        string `json:"output"`
}

// bundleResult is one pass over a bundle.
type bundleResult struct {
	// calls holds each app's seconds per iteration in each timed layer
	// call, keyed by app and span name.
	calls             map[string][]float64
	heapPeaks         []float64 // bytes, highest per iteration
	cycles            uint64    // simulated cycles of one iteration
	prints            []appPrint
	attempted, failed int
	failures          []string
	// layers holds per-iteration span totals (ms) and counts, keyed by
	// per-layer metric inputs; filled when tracing.
	layers []map[string]float64
}

// simCounts reads the machine's published counters by name, so a
// counter the simulator stops publishing is simply absent.
func simCounts(m *sim.Machine) obs.Snapshot {
	r := obs.NewRegistry()
	m.StatsSnapshot().Publish(r)
	return r.Snapshot()
}

func addCounts(dst map[string]float64, prefix string, s obs.Snapshot) {
	get := func(name string) float64 { return s[name].Value }
	dst[prefix+"accesses"] += get("sim.mem.accesses")
	dst["tlb.translations"] += get("sim.tlb.hits") + get("sim.tlb.misses")
	dst["tlb.misses"] += get("sim.tlb.misses")
	dst["cache.accesses"] += get("sim.l1.hits") + get("sim.l1.misses") + get("sim.l2.hits") + get("sim.l2.misses")
	dst["dram.bytes"] += get("sim.bus.bytes")
	if _, ok := s["coverage.fast_accesses"]; ok {
		dst["fast.accesses"] += get("coverage.fast_accesses")
		dst["slow.accesses"] += get("coverage.slow_accesses")
	}
}

// bundleRunner runs a bundle one iteration at a time. Each app
// comparison builds both instances and compiles the stream program (the
// set-up before simulated time starts), runs the regular and stream
// versions, and checks their outputs; every repetition must reproduce
// the first one's fingerprint.
type bundleRunner struct {
	ctx      context.Context
	tr       *tracer
	apps     []appSpec
	ecfg     exec.Config
	layerReg *obs.Registry // nil unless tracing
	res      bundleResult
}

func newBundleRunner(ctx context.Context, tr *tracer, apps []appSpec) *bundleRunner {
	b := &bundleRunner{ctx: ctx, tr: tr, apps: apps, ecfg: exec.Defaults(), res: bundleResult{calls: map[string][]float64{}}}
	if tr.on {
		b.layerReg = obs.NewRegistry()
	}
	return b
}

func (b *bundleRunner) iteration(it int) {
	res, tr := &b.res, b.tr
	var cycles uint64
	var prints []appPrint
	lay := map[string]float64{}
	var before obs.Snapshot
	if b.layerReg != nil {
		before = b.layerReg.Snapshot()
	}
	// Every iteration starts from a collected heap, so the garbage
	// collector's pacing, and with it the heap peak and the time spent
	// collecting, repeats from one iteration to the next.
	runtime.GC()
	tr.takePeak()
	tr.do(b.ctx, "bundle.iteration", 0, it, 0, func(ctx context.Context, parent int) error {
		for _, a := range b.apps {
			res.attempted++
			pr, st, err := runApp(ctx, tr, a, b.ecfg, parent, it, b.layerReg, lay)
			for span, d := range st {
				res.calls[a.name+" "+span] = append(res.calls[a.name+" "+span], d.Seconds())
			}
			if err != nil {
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("iteration %d %s: %v", it, a.name, err))
				continue
			}
			cycles += pr.RegularCycles + pr.StreamCycles
			prints = append(prints, pr)
		}
		return nil
	})
	res.heapPeaks = append(res.heapPeaks, float64(tr.takePeak()))
	if it == 0 {
		res.prints, res.cycles = prints, cycles
	} else if fp, fp0 := fingerprint(prints, nil), fingerprint(res.prints, nil); fp != fp0 {
		res.failed++
		res.failures = append(res.failures, fmt.Sprintf("iteration %d fingerprint %s differs from iteration 0's %s", it, fp, fp0))
	}
	if b.layerReg != nil {
		d := b.layerReg.Snapshot().Delta(before)
		for _, k := range []string{"svm.gather.elems", "svm.gather.indexed_elems", "svm.scatter.elems", "svm.scatter.indexed_elems"} {
			lay[k] = d[k].Value
		}
		for name, v := range d {
			if strings.HasPrefix(name, "wq.completed.") {
				lay["wq.tasks"] += v.Value
			}
		}
		res.layers = append(res.layers, lay)
	}
}

// appTimes is one app comparison's duration per layer call.
type appTimes map[string]time.Duration

func runApp(ctx context.Context, tr *tracer, a appSpec, ecfg exec.Config, parent, it int, layerReg *obs.Registry, lay map[string]float64) (appPrint, appTimes, error) {
	st := appTimes{}
	pr := appPrint{App: a.name}
	var inst *instance
	d, err := tr.do(ctx, "apps.build", parent, it, 0, func(context.Context, int) error {
		var err error
		inst, err = a.build()
		return err
	})
	st["apps.build"] = d
	lay["apps.build_ms"] += ms(d)
	if err != nil {
		return pr, st, err
	}
	if layerReg != nil {
		inst.regM.SetObserver(layerReg)
		inst.strM.SetObserver(layerReg)
	}
	var prog *compiler.Program
	d, err = tr.do(ctx, "compiler.compile", parent, it, 0, func(context.Context, int) error {
		var err error
		prog, err = compiler.Compile(inst.graph, compiler.DefaultOptions(svm.DefaultSRF(inst.strM)))
		return err
	})
	st["compiler.compile"] = d
	lay["compiler.compile_ms"] += ms(d)
	if err != nil {
		return pr, st, err
	}
	d, _ = tr.do(ctx, "exec.regular", parent, it, 0, func(context.Context, int) error {
		pr.RegularCycles = inst.regular(ecfg).Cycles
		return nil
	})
	st["exec.regular"] = d
	lay["exec.regular_ms"] += ms(d)
	d, err = tr.do(ctx, "exec.stream", parent, it, 0, func(context.Context, int) error {
		r, err := exec.RunStream2Ctx(inst.strM, prog, ecfg)
		pr.StreamCycles = r.Cycles
		return err
	})
	st["exec.stream"] = d
	lay["exec.stream_ms"] += ms(d)
	if err != nil {
		return pr, st, err
	}
	d, err = tr.do(ctx, "apps.verify", parent, it, 0, func(context.Context, int) error {
		var err error
		pr.Output, err = inst.check()
		return err
	})
	st["apps.verify"] = d
	lay["apps.verify_ms"] += ms(d)
	if err != nil {
		return pr, st, err
	}
	if layerReg != nil {
		addCounts(lay, "reg.", simCounts(inst.regM))
		addCounts(lay, "str.", simCounts(inst.strM))
	}
	return pr, st, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// seconds sums, over the bundle's apps, the median time of the named
// layer calls. A median per call keeps a burst of host load that slows
// one call of one iteration out of the result.
func (b bundleResult) seconds(spans ...string) float64 {
	var t float64
	for _, pr := range b.prints {
		for _, sp := range spans {
			t += median(b.calls[pr.App+" "+sp])
		}
	}
	return t
}
