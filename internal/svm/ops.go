package svm

import (
	"fmt"

	"streamgpp/internal/sim"
)

// groupBytes returns the array-side bytes one record contributes.
func groupBytes(groups []Group) int {
	total := 0
	for _, g := range groups {
		total += g.Size
	}
	return total
}

// observeOp records one bulk operation's traffic: the strip count, the
// array-side bytes moved, and the sequential/indexed element split,
// per operation and per array. The instrument handles are resolved
// once per registry (see metrics.go).
func observeOp(c *sim.CPU, op string, n, bytesPerRec int, indexed bool, arrayName string) {
	if c == nil {
		return
	}
	r := c.Machine().Observer()
	if r == nil {
		return
	}
	cs := countersFor(r)
	oc := &cs.gather
	if op == "scatter" {
		oc = &cs.scatter
	}
	oc.strips.Inc()
	oc.elems.Add(uint64(n))
	oc.arrayBytes.Add(uint64(n * bytesPerRec))
	ac := cs.arrayCounters(r, arrayName)
	ac.elems.Add(uint64(n))
	if indexed {
		oc.idxElems.Add(uint64(n))
		ac.idxElems.Add(uint64(n))
	} else {
		oc.seqElems.Add(uint64(n))
	}
}

// ScatterMode selects how scattered values combine with the array.
type ScatterMode uint8

// Scatter modes.
const (
	// ModeStore overwrites the destination fields.
	ModeStore ScatterMode = iota
	// ModeAdd accumulates into the destination fields (the residual
	// scatter-add of streamFEM/streamCDP).
	ModeAdd
)

// OpConfig tunes the bulk memory operations. The defaults model the
// paper's optimised streamGather/streamScatter library: software
// non-temporal prefetch with a short pipeline of outstanding accesses.
type OpConfig struct {
	// MLP is the number of outstanding array-side accesses the copy
	// loop sustains (software prefetch distance).
	MLP int
	// IssueCycles is the per-access issue cost of the copy loop.
	IssueCycles uint64
	// Hint is the cacheability hint for the array side. Non-temporal
	// keeps array traffic from displacing the SRF.
	Hint sim.Hint
}

// DefaultOps returns the configuration used by the stream runtime.
func DefaultOps() OpConfig {
	return OpConfig{MLP: 2, IssueCycles: 1, Hint: sim.HintNonTemporal}
}

// Gather copies the selected fields of n records of src into dst
// elements [dstStart, dstStart+n), reading records sequentially from
// srcStart or through index entries idx[idxStart:idxStart+n]. buf is
// the SRF strip buffer that receives the data (timing only; pass the
// zero SRFBuf to skip SRF-side traffic). c may be nil for a purely
// functional run (tests and reference results).
//
// Timing: array-side reads use cfg.Hint (non-temporal by default, so
// the SRF stays pinned); SRF-side writes are temporal stores that hit
// in cache. Contiguous selected fields move as one block copy per
// record (the paper's field-alignment optimisation).
func Gather(c *sim.CPU, cfg OpConfig, dst *Stream, dstStart int, src *Array, fields []int,
	srcStart int, idx *IndexArray, idxStart, n int, buf SRFBuf) {
	if n == 0 {
		return
	}
	checkRange("Gather dst", dstStart, n, dst.N)
	groups := src.Layout.Groups(fields)
	elemBytes := dst.ElemBytes()
	observeOp(c, "gather", n, groupBytes(groups), idx != nil, src.Name)

	var pipe *sim.Pipe
	if c != nil {
		pipe = c.NewPipe(cfg.MLP, cfg.IssueCycles, sim.StateMemory)
	}

	nf := len(src.Layout.Fields)
	snf := dst.NumFields()
	for k := 0; k < n; k++ {
		rec := srcStart + k
		if idx != nil {
			if c != nil {
				// The index entries themselves stream sequentially.
				pipe.Access(idx.ElemAddr(idxStart+k), IndexElemBytes, false, cfg.Hint)
			}
			rec = int(idx.Idx[idxStart+k])
		}
		if rec < 0 || rec >= src.N {
			panic(fmt.Sprintf("svm: Gather index %d out of array %s [0,%d)", rec, src.Name, src.N))
		}
		df := 0
		for _, g := range groups {
			if c != nil {
				pipe.Access(src.RecordAddr(rec)+uint64(g.Offset), g.Size, false, cfg.Hint)
				if buf.Size > 0 {
					pipe.Access(buf.ElemAddr(k, elemBytes), g.Size, true, sim.HintNone)
				}
			}
			for _, fi := range g.Fields {
				dst.Data[(dstStart+k)*snf+df] = src.Data[rec*nf+fi]
				df++
			}
		}
	}
	if c != nil {
		pipe.Drain()
	}
}

// Scatter writes dst fields from stream elements [srcStart, srcStart+n)
// into n records of the array, sequentially from dstStart or through
// idx[idxStart:idxStart+n]. mode selects overwrite or accumulate. buf
// is the SRF strip the data comes from (timing only).
//
// Timing: SRF-side reads hit in cache; array-side stores use cfg.Hint
// (movntq-style write combining by default). ModeAdd must read the old
// value, so the array side degenerates to temporal read-modify-write —
// exactly why the paper's scatter-adds are expensive.
func Scatter(c *sim.CPU, cfg OpConfig, src *Stream, srcStart int, dst *Array, fields []int,
	dstStart int, idx *IndexArray, idxStart, n int, mode ScatterMode, buf SRFBuf) {
	if n == 0 {
		return
	}
	checkRange("Scatter src", srcStart, n, src.N)
	groups := dst.Layout.Groups(fields)
	elemBytes := src.ElemBytes()
	observeOp(c, "scatter", n, groupBytes(groups), idx != nil, dst.Name)

	var pipe *sim.Pipe
	if c != nil {
		pipe = c.NewPipe(cfg.MLP, cfg.IssueCycles, sim.StateMemory)
	}

	nf := len(dst.Layout.Fields)
	snf := src.NumFields()
	for k := 0; k < n; k++ {
		rec := dstStart + k
		if idx != nil {
			if c != nil {
				pipe.Access(idx.ElemAddr(idxStart+k), IndexElemBytes, false, cfg.Hint)
			}
			rec = int(idx.Idx[idxStart+k])
		}
		if rec < 0 || rec >= dst.N {
			panic(fmt.Sprintf("svm: Scatter index %d out of array %s [0,%d)", rec, dst.Name, dst.N))
		}
		sf := 0
		for _, g := range groups {
			if c != nil {
				if buf.Size > 0 {
					pipe.Access(buf.ElemAddr(k, elemBytes), g.Size, false, sim.HintNone)
				}
				if mode == ModeAdd {
					// Read-modify-write: the old values must come in
					// temporally before the sum goes out.
					pipe.Access(dst.RecordAddr(rec)+uint64(g.Offset), g.Size, false, sim.HintNone)
					pipe.Access(dst.RecordAddr(rec)+uint64(g.Offset), g.Size, true, sim.HintNone)
				} else {
					pipe.Access(dst.RecordAddr(rec)+uint64(g.Offset), g.Size, true, cfg.Hint)
				}
			}
			for _, fi := range g.Fields {
				v := src.Data[(srcStart+k)*snf+sf]
				if mode == ModeAdd {
					dst.Data[rec*nf+fi] += v
				} else {
					dst.Data[rec*nf+fi] = v
				}
				sf++
			}
		}
	}
	if c != nil {
		pipe.Drain()
		if mode == ModeStore && cfg.Hint == sim.HintNonTemporal {
			c.DrainWC() // close the movntq sequence with an sfence
		}
	}
}

// GatherMulti copies the selected fields of src records reached through
// SEVERAL index arrays into one stream: element i of dst holds, for
// each index array j, the fields of src[idxs[j].Idx[idxStart+i]],
// concatenated. This is how streamFEM's GatherCell pulls all three of
// a cell's face fluxes in a single pass: the indices per element are
// spatially close, so one sweep reuses each fetched line instead of
// len(idxs) separate gathers re-fetching it.
func GatherMulti(c *sim.CPU, cfg OpConfig, dst *Stream, dstStart int, src *Array, fields []int,
	idxs []*IndexArray, idxStart, n int, buf SRFBuf) {
	if n == 0 {
		return
	}
	if len(idxs) == 0 {
		panic("svm: GatherMulti needs at least one index array")
	}
	if dst.NumFields() != len(fields)*len(idxs) {
		panic(fmt.Sprintf("svm: GatherMulti stream %s has %d fields, want %d×%d",
			dst.Name, dst.NumFields(), len(fields), len(idxs)))
	}
	checkRange("GatherMulti dst", dstStart, n, dst.N)
	groups := src.Layout.Groups(fields)
	elemBytes := dst.ElemBytes()
	observeOp(c, "gather", n*len(idxs), groupBytes(groups), true, src.Name)

	var pipe *sim.Pipe
	if c != nil {
		pipe = c.NewPipe(cfg.MLP, cfg.IssueCycles, sim.StateMemory)
	}

	nf := len(src.Layout.Fields)
	snf := dst.NumFields()
	per := len(fields)
	for k := 0; k < n; k++ {
		for j, ix := range idxs {
			if c != nil {
				pipe.Access(ix.ElemAddr(idxStart+k), IndexElemBytes, false, cfg.Hint)
			}
			rec := int(ix.Idx[idxStart+k])
			if rec < 0 || rec >= src.N {
				panic(fmt.Sprintf("svm: GatherMulti index %d out of array %s [0,%d)", rec, src.Name, src.N))
			}
			df := j * per
			for _, g := range groups {
				if c != nil {
					pipe.Access(src.RecordAddr(rec)+uint64(g.Offset), g.Size, false, cfg.Hint)
					if buf.Size > 0 {
						pipe.Access(buf.ElemAddr(k, elemBytes), g.Size, true, sim.HintNone)
					}
				}
				for _, fi := range g.Fields {
					dst.Data[(dstStart+k)*snf+df] = src.Data[rec*nf+fi]
					df++
				}
			}
		}
	}
	if c != nil {
		pipe.Drain()
	}
}

// CopyStream copies n elements between streams (a producer-consumer
// forward entirely inside the SRF; functionally a memcpy, timed as
// cache-resident traffic folded into kernel cost — i.e. free here).
func CopyStream(dst *Stream, dstStart int, src *Stream, srcStart, n int) {
	if dst.NumFields() != src.NumFields() {
		panic(fmt.Sprintf("svm: CopyStream field mismatch %s(%d) vs %s(%d)",
			dst.Name, dst.NumFields(), src.Name, src.NumFields()))
	}
	checkRange("CopyStream dst", dstStart, n, dst.N)
	checkRange("CopyStream src", srcStart, n, src.N)
	nf := src.NumFields()
	copy(dst.Data[dstStart*nf:(dstStart+n)*nf], src.Data[srcStart*nf:(srcStart+n)*nf])
}

func checkRange(what string, start, n, limit int) {
	if start < 0 || n < 0 || start+n > limit {
		panic(fmt.Sprintf("svm: %s range [%d,%d) out of [0,%d)", what, start, start+n, limit))
	}
}
