package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"streamgpp/internal/apps/cdp"
	"streamgpp/internal/apps/neo"
	"streamgpp/internal/apps/spas"
	"streamgpp/internal/exec"
	"streamgpp/internal/sdf"
	"streamgpp/internal/sim"
	"streamgpp/internal/svm"
)

// instance is one app comparison ready to simulate: a regular-code
// machine, a stream machine with its dataflow graph, and the check that
// compares the two versions' outputs. Building one is the apps layer;
// compiling the graph, running both versions and checking are the
// compiler, exec and apps layers in turn.
type instance struct {
	regM, strM *sim.Machine
	regular    func(exec.Config) exec.Result
	graph      *sdf.Graph
	// check compares the regular and stream outputs and returns a
	// digest of both, so a changed output shows as a changed
	// fingerprint even where the two versions still agree.
	check func() (string, error)
}

// appSpec names one app of a bundle and builds its instances.
type appSpec struct {
	name  string
	build func() (*instance, error)
}

// digest hashes float slices bit-exactly.
func digest(arrays ...[]float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range arrays {
		for _, v := range a {
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func equalExact(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s: element %d differs: %v vs %v", what, i, a[i], b[i])
		}
	}
	return nil
}

func equalRel(what string, a, b []float64, tol float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i])/math.Max(math.Abs(a[i]), 1) > tol {
			return fmt.Errorf("%s: element %d differs: %v vs %v", what, i, a[i], b[i])
		}
	}
	return nil
}

// spasApp is streamSPAS: CSR SpMV whose stream version gathers one
// input-vector copy per non-zero (§IV-C.4).
func spasApp(rows int, seed int64) appSpec {
	p := spas.Params{Rows: rows, NNZPerRow: spas.PaperNNZPerRow, Seed: seed}
	return appSpec{name: fmt.Sprintf("SPAS/rows=%d", rows), build: func() (*instance, error) {
		reg, err := spas.NewInstance(p)
		if err != nil {
			return nil, err
		}
		str, err := spas.NewInstance(p)
		if err != nil {
			return nil, err
		}
		return &instance{
			regM: reg.M, strM: str.M, regular: reg.RunRegular, graph: str.Graph(),
			check: func() (string, error) {
				if err := equalRel("spas y", reg.Y.Data, str.Y.Data, 1e-9); err != nil {
					return "", err
				}
				return digest(reg.Y.Data, str.Y.Data), nil
			},
		}, nil
	}}
}

// cdpApp is streamCDP on a fixed grid; Steps=1 so the stream program
// runs once.
func cdpApp(grid cdp.Params) appSpec {
	p := grid
	p.Steps = 1
	return appSpec{name: "CDP/" + p.Name(), build: func() (*instance, error) {
		reg, err := cdp.NewInstance(p)
		if err != nil {
			return nil, err
		}
		str, err := cdp.NewInstance(p)
		if err != nil {
			return nil, err
		}
		return &instance{
			regM: reg.M, strM: str.M, regular: reg.RunRegular, graph: str.Graph(),
			check: func() (string, error) {
				if err := equalRel("cdp phi", reg.Phi.Data, str.Phi.Data, 1e-9); err != nil {
					return "", err
				}
				if err := equalRel("cdp max residual", []float64{reg.MaxRes}, []float64{str.MaxRes}, 1e-9); err != nil {
					return "", err
				}
				return digest(reg.Phi.Data, str.Phi.Data, []float64{reg.MaxRes, str.MaxRes}), nil
			},
		}, nil
	}}
}

// neoApp is the neo-hookean element update, whose intermediates stay
// in the SRF in the stream version.
func neoApp(elements int, seed int64) appSpec {
	p := neo.Params{Elements: elements, Seed: seed}
	return appSpec{name: fmt.Sprintf("Neo/elems=%d", elements), build: func() (*instance, error) {
		reg, err := neo.NewInstance(p)
		if err != nil {
			return nil, err
		}
		str, err := neo.NewInstance(p)
		if err != nil {
			return nil, err
		}
		return &instance{
			regM: reg.M, strM: str.M, regular: reg.RunRegular, graph: str.Graph(),
			check: func() (string, error) {
				if err := equalExact("neo tangent", reg.Tan.Data, str.Tan.Data); err != nil {
					return "", err
				}
				if err := equalExact("neo PK", reg.P9.Data, str.P9.Data); err != nil {
					return "", err
				}
				return digest(reg.Tan.Data, reg.P9.Data), nil
			},
		}, nil
	}}
}

// The micro-benchmarks below are built from the svm, sdf and exec
// public calls in the same shape as internal/apps/micro, whose Run
// functions fuse build, compile and run into one call. The regular
// loops declare their references as micro does (LD-ST through
// Loop.AffineRefs, GAT-SCAT through Loop.Refs), so the simulator serves
// them by the same paths; the harness tests hold their cycle counts and
// fast-path access counts equal to micro.RunLDST and micro.RunGATSCAT.

const compUnitOps = 50 // COMP=1 ≈ 50 cycles per element (Fig. 9)

func compFn(x float64, comp int) float64 {
	r := x
	for k := 0; k < comp; k++ {
		r = r*0.9995 + 0.25
	}
	return r
}

func opsPerElem(comp int) int64 {
	if ops := int64(comp) * compUnitOps; ops >= 4 {
		return ops
	}
	return 4
}

func microKernel(name string, comp int) *svm.Kernel {
	return &svm.Kernel{
		Name: name, OpsPerElem: opsPerElem(comp),
		Fn: func(ins, outs []*svm.Stream, start, n int) int64 {
			for i := start; i < start+n; i++ {
				outs[0].Set(i, 0, compFn(ins[0].At(i, 0)+ins[1].At(i, 0), comp))
			}
			return 0
		},
	}
}

type ldstArrays struct {
	m       *sim.Machine
	a, b, o *svm.Array
}

func newLDSTArrays(cfg sim.Config, n int, seed int64) *ldstArrays {
	m := sim.MustNew(cfg)
	l := svm.Layout("rec", svm.F("v", 8))
	x := &ldstArrays{m: m, a: svm.NewArray(m, "a", l, n), b: svm.NewArray(m, "b", l, n), o: svm.NewArray(m, "o", l, n)}
	rng := rand.New(rand.NewSource(seed))
	x.a.Fill(func(i, f int) float64 { return rng.Float64() })
	x.b.Fill(func(i, f int) float64 { return rng.Float64() })
	return x
}

// ldstApp is LD-ST-COMP: two sequential loads, compute, one sequential
// store per element.
func ldstApp(cfg sim.Config, n, comp int, seed int64) appSpec {
	return appSpec{name: fmt.Sprintf("LD-ST-COMP/n=%d", n), build: func() (*instance, error) {
		reg := newLDSTArrays(cfg, n, seed)
		str := newLDSTArrays(cfg, n, seed)
		l := str.a.Layout
		g := sdf.New("ldst")
		as := g.Input(svm.StreamOf("as", n, l, l.AllFields()), sdf.Bind(str.a))
		bs := g.Input(svm.StreamOf("bs", n, l, l.AllFields()), sdf.Bind(str.b))
		os := g.AddKernel(microKernel("ldstcomp", comp), []*sdf.Edge{as, bs}, []*svm.Stream{svm.NewStream("os", n, svm.F("v", 8))})
		g.Output(os[0], sdf.Bind(str.o))
		loop := exec.Loop{
			Name: "ldst", N: n,
			Ops: func(int) int64 { return opsPerElem(comp) },
			AffineRefs: []sim.BulkRef{
				{Base: reg.a.FieldAddr(0, 0), Size: 8, Stride: reg.a.Layout.Stride},
				{Base: reg.b.FieldAddr(0, 0), Size: 8, Stride: reg.b.Layout.Stride},
				{Base: reg.o.FieldAddr(0, 0), Size: 8, Stride: reg.o.Layout.Stride, Write: true},
			},
			Body: func(i int) { reg.o.Set(i, 0, compFn(reg.a.At(i, 0)+reg.b.At(i, 0), comp)) },
		}
		return &instance{
			regM: reg.m, strM: str.m, graph: g,
			regular: func(ecfg exec.Config) exec.Result { return exec.RunRegular(reg.m, ecfg, loop) },
			check: func() (string, error) {
				if err := equalExact("LD-ST-COMP o", reg.o.Data, str.o.Data); err != nil {
					return "", err
				}
				return digest(str.o.Data), nil
			},
		}, nil
	}}
}

type gatscatArrays struct {
	m          *sim.Machine
	a, b, o    *svm.Array
	ia, ib, io *svm.IndexArray
}

func newGATSCATArrays(cfg sim.Config, n int, seed int64) *gatscatArrays {
	m := sim.MustNew(cfg)
	l := svm.Layout("rec", svm.F("v", 8))
	x := &gatscatArrays{
		m: m,
		a: svm.NewArray(m, "a", l, n), b: svm.NewArray(m, "b", l, n), o: svm.NewArray(m, "o", l, n),
		ia: svm.NewIndexArray(m, "ia", n), ib: svm.NewIndexArray(m, "ib", n), io: svm.NewIndexArray(m, "io", n),
	}
	rng := rand.New(rand.NewSource(seed))
	x.a.Fill(func(i, f int) float64 { return rng.Float64() })
	x.b.Fill(func(i, f int) float64 { return rng.Float64() })
	for _, idx := range []*svm.IndexArray{x.ia, x.ib} {
		for i := range idx.Idx {
			idx.Idx[i] = int32(rng.Intn(n))
		}
	}
	// A permutation, so no element is scattered twice.
	for i, v := range rng.Perm(n) {
		x.io.Idx[i] = int32(v)
	}
	return x
}

// gatscatApp is GAT-SCAT-COMP: two random gathers, compute, one random
// scatter per element, on the given machine.
func gatscatApp(label string, cfg sim.Config, n, comp int, seed int64) appSpec {
	return appSpec{name: fmt.Sprintf("GAT-SCAT-COMP/%s/n=%d", label, n), build: func() (*instance, error) {
		reg := newGATSCATArrays(cfg, n, seed)
		str := newGATSCATArrays(cfg, n, seed)
		l := str.a.Layout
		g := sdf.New("gatscat")
		as := g.Input(svm.StreamOf("as", n, l, l.AllFields()), sdf.Bind(str.a).Indexed(str.ia))
		bs := g.Input(svm.StreamOf("bs", n, l, l.AllFields()), sdf.Bind(str.b).Indexed(str.ib))
		os := g.AddKernel(microKernel("gatscatcomp", comp), []*sdf.Edge{as, bs}, []*svm.Stream{svm.NewStream("os", n, svm.F("v", 8))})
		g.Output(os[0], sdf.Bind(str.o).Indexed(str.io))
		loop := exec.Loop{
			Name: "gatscat", N: n,
			Ops: func(int) int64 { return opsPerElem(comp) },
			Refs: func(i int, emit func(sim.Addr, int, bool)) {
				emit(reg.ia.ElemAddr(i), svm.IndexElemBytes, false)
				emit(reg.ib.ElemAddr(i), svm.IndexElemBytes, false)
				emit(reg.io.ElemAddr(i), svm.IndexElemBytes, false)
				emit(reg.a.FieldAddr(int(reg.ia.Idx[i]), 0), 8, false)
				emit(reg.b.FieldAddr(int(reg.ib.Idx[i]), 0), 8, false)
				emit(reg.o.FieldAddr(int(reg.io.Idx[i]), 0), 8, true)
			},
			Body: func(i int) {
				v := compFn(reg.a.At(int(reg.ia.Idx[i]), 0)+reg.b.At(int(reg.ib.Idx[i]), 0), comp)
				reg.o.Set(int(reg.io.Idx[i]), 0, v)
			},
		}
		return &instance{
			regM: reg.m, strM: str.m, graph: g,
			regular: func(ecfg exec.Config) exec.Result { return exec.RunRegular(reg.m, ecfg, loop) },
			check: func() (string, error) {
				if err := equalExact("GAT-SCAT-COMP o", reg.o.Data, str.o.Data); err != nil {
					return "", err
				}
				return digest(str.o.Data), nil
			},
		}, nil
	}}
}
