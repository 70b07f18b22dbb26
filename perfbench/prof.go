package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (gzipped
// profile.proto) far enough to attribute samples: for each sample its
// stack of function names and files, its "span" label and its CPU
// nanoseconds. The standard library's own decoder is internal to it.

type frame struct{ fn, file string }

type profSample struct {
	stack []frame // leaf first
	span  string  // the pprof "span" label, "" if unlabelled
	ns    int64   // CPU time
}

type pbuf struct {
	b []byte
	i int
}

var errProto = errors.New("perfbench: malformed profile")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for s := uint(0); s < 64; s += 7 {
		if p.i >= len(p.b) {
			return 0, errProto
		}
		c := p.b[p.i]
		p.i++
		v |= uint64(c&0x7f) << s
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field reads one key and returns its number, wire type, the varint
// value (wire type 0) or the bytes (wire type 2).
func (p *pbuf) field() (num int, wt int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = p.varint()
	case 1:
		if p.i+8 > len(p.b) {
			return 0, 0, 0, nil, errProto
		}
		p.i += 8
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)-p.i) < n {
				return 0, 0, 0, nil, errProto
			}
			data = p.b[p.i : p.i+int(n)]
			p.i += int(n)
		}
	case 5:
		if p.i+4 > len(p.b) {
			return 0, 0, 0, nil, errProto
		}
		p.i += 4
	default:
		err = errProto
	}
	return num, wt, v, data, err
}

// uints appends a repeated uint64 field, packed or not.
func uints(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	q := pbuf{b: data}
	for q.i < len(q.b) {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type rawSample struct {
	locs   []uint64
	values []uint64
	labels [][2]uint64 // key, str string-table indexes
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(r io.Reader) ([]profSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	var (
		strs      []string
		samples   []rawSample
		locLines  = map[uint64][]uint64{}  // location id → function ids, leaf first
		funcs     = map[uint64][2]uint64{} // function id → name, file
		sampleIdx = -1                     // which sample value is CPU nanoseconds
		types     [][2]uint64
	)
	p := pbuf{b: raw}
	for p.i < len(p.b) {
		num, _, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			t, err := parseValueType(data)
			if err != nil {
				return nil, err
			}
			types = append(types, t)
		case 2:
			s, err := parseSample(data)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case 4:
			id, fns, err := parseLocation(data)
			if err != nil {
				return nil, err
			}
			locLines[id] = fns
		case 5:
			id, nf, err := parseFunction(data)
			if err != nil {
				return nil, err
			}
			funcs[id] = nf
		case 6:
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for i, t := range types {
		if str(t[0]) == "cpu" {
			sampleIdx = i
		}
	}
	if sampleIdx < 0 {
		return nil, errors.New("perfbench: profile has no cpu sample type")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if sampleIdx >= len(s.values) {
			continue
		}
		ps := profSample{ns: int64(s.values[sampleIdx])}
		for _, l := range s.labels {
			if str(l[0]) == "span" {
				ps.span = str(l[1])
			}
		}
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				f := funcs[fid]
				ps.stack = append(ps.stack, frame{fn: str(f[0]), file: str(f[1])})
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

func parseValueType(b []byte) ([2]uint64, error) {
	var t [2]uint64
	p := pbuf{b: b}
	for p.i < len(p.b) {
		num, _, v, _, err := p.field()
		if err != nil {
			return t, err
		}
		if num == 1 || num == 2 {
			t[num-1] = v
		}
	}
	return t, nil
}

func parseSample(b []byte) (rawSample, error) {
	var s rawSample
	p := pbuf{b: b}
	for p.i < len(p.b) {
		num, wt, v, data, err := p.field()
		if err != nil {
			return s, err
		}
		switch num {
		case 1:
			s.locs, err = uints(s.locs, wt, v, data)
		case 2:
			s.values, err = uints(s.values, wt, v, data)
		case 3:
			var l [2]uint64
			q := pbuf{b: data}
			for q.i < len(q.b) {
				n, _, x, _, e := q.field()
				if e != nil {
					return s, e
				}
				if n == 1 || n == 2 {
					l[n-1] = x
				}
			}
			s.labels = append(s.labels, l)
		}
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

func parseLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	p := pbuf{b: b}
	for p.i < len(p.b) {
		num, _, v, data, err := p.field()
		if err != nil {
			return 0, nil, err
		}
		switch num {
		case 1:
			id = v
		case 4: // line: function_id is field 1
			q := pbuf{b: data}
			for q.i < len(q.b) {
				n, _, x, _, e := q.field()
				if e != nil {
					return 0, nil, e
				}
				if n == 1 {
					fns = append(fns, x)
				}
			}
		}
	}
	return id, fns, nil
}

func parseFunction(b []byte) (uint64, [2]uint64, error) {
	var id uint64
	var nf [2]uint64
	p := pbuf{b: b}
	for p.i < len(p.b) {
		num, _, v, _, err := p.field()
		if err != nil {
			return 0, nf, err
		}
		switch num {
		case 1:
			id = v
		case 2:
			nf[0] = v
		case 4:
			nf[1] = v
		}
	}
	return id, nf, nil
}

// Profile categories. Each sample counts once, under the first rule
// that matches; "other" takes the rest.
const (
	catGC     = "gc"
	catTLB    = "sim_tlb"
	catCache  = "sim_cache"
	catBulk   = "sim_bulk"
	catEngine = "sim_engine"
	catSVM    = "svm"
	catOther  = "other"
)

var profCategories = []string{catTLB, catCache, catBulk, catEngine, catSVM, catGC, catOther}

const simPkg = "streamgpp/internal/sim."

// schedFuncs are runtime functions a context handoff between the
// simulator's goroutines runs through.
var schedFuncs = []string{
	"runtime.gopark", "runtime.goready", "runtime.chansend", "runtime.chanrecv",
	"runtime.selectgo", "runtime.schedule", "runtime.findRunnable", "runtime.park_m",
	"runtime.mcall", "runtime.gogo", "runtime.futex", "runtime.lock2", "runtime.unlock2",
	"runtime.ready", "runtime.runqget", "runtime.runqput", "runtime.casgstatus",
	"runtime.execute", "runtime.stealWork", "runtime.notesleep", "runtime.notewakeup",
	"runtime.wakep", "runtime.usleep", "runtime.osyield", "runtime.procyield",
	"runtime.send", "runtime.recv", "runtime.nanotime", "runtime.resetspinning",
	"runtime.checkTimers", "runtime.semasleep", "runtime.semawakeup",
}

var gcFuncs = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot", "runtime.gcDrain",
}

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// category attributes one sample by its leaf frame: the sim TLB, the
// rest of the sim memory system (caches, bus, prefetcher), the sim bulk
// path, the context-switch engine, svm, or the garbage collector
// anywhere on the stack.
func category(s profSample) string {
	for _, f := range s.stack {
		if hasPrefixAny(f.fn, gcFuncs) {
			return catGC
		}
	}
	if len(s.stack) == 0 {
		return catOther
	}
	leaf := s.stack[0]
	inSim := false
	for _, f := range s.stack {
		if strings.HasPrefix(f.fn, simPkg) {
			inSim = true
			break
		}
	}
	switch {
	case strings.HasSuffix(leaf.file, "internal/sim/bulk.go"):
		return catBulk
	case strings.HasPrefix(leaf.fn, simPkg+"(*TLB)."):
		return catTLB
	case hasPrefixAny(leaf.fn, []string{simPkg + "(*Cache).", simPkg + "(*MemSystem).", simPkg + "(*Bus).", simPkg + "(*Prefetcher)."}):
		return catCache
	case strings.HasSuffix(leaf.file, "internal/sim/machine.go"),
		inSim && hasPrefixAny(leaf.fn, schedFuncs):
		return catEngine
	case strings.HasPrefix(leaf.fn, "streamgpp/internal/svm."):
		return catSVM
	}
	return catOther
}

// profSummary is a profile reduced to CPU time per category, overall
// and per span label.
type profSummary struct {
	total  int64
	byCat  map[string]int64
	bySpan map[string]map[string]int64
}

func summarize(samples []profSample) profSummary {
	ps := profSummary{byCat: map[string]int64{}, bySpan: map[string]map[string]int64{}}
	for _, s := range samples {
		c := category(s)
		ps.total += s.ns
		ps.byCat[c] += s.ns
		m := ps.bySpan[s.span]
		if m == nil {
			m = map[string]int64{}
			ps.bySpan[s.span] = m
		}
		m[c] += s.ns
	}
	return ps
}

// pct is a category's share of all CPU time, in percent.
func (ps profSummary) pct(cat string) float64 {
	if ps.total == 0 {
		return 0
	}
	return 100 * float64(ps.byCat[cat]) / float64(ps.total)
}

func (ps profSummary) print(w io.Writer) {
	spans := make([]string, 0, len(ps.bySpan))
	for s := range ps.bySpan {
		spans = append(spans, s)
	}
	sort.Strings(spans)
	var hdr bytes.Buffer
	fmt.Fprintf(&hdr, "%-24s", "cpu_ms by span")
	for _, c := range profCategories {
		fmt.Fprintf(&hdr, " %10s", c)
	}
	fmt.Fprintln(w, hdr.String())
	for _, s := range spans {
		name := s
		if name == "" {
			name = "(unlabelled)"
		}
		fmt.Fprintf(w, "%-24s", name)
		for _, c := range profCategories {
			fmt.Fprintf(w, " %10.0f", float64(ps.bySpan[s][c])/1e6)
		}
		fmt.Fprintln(w)
	}
}
