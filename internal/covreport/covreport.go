// Package covreport builds the run's traffic report: how the svm
// layer's bulk elements split between sequential and indexed access,
// per operation and per array, and where the run's memory traffic went
// per level (obs.BandwidthReport). The report is a pure function of a
// flattened metrics map, the stream run's cycles and the machine
// configuration, so the same builder serves streamtrace's -coverage
// text/JSON views, streamd's per-job coverage downloads and tests — and
// can re-derive a report from a ledger entry's Metrics after the fact.
package covreport

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"streamgpp/internal/obs"
	"streamgpp/internal/sim"
)

// Report is the traffic report object (streamtrace's -coverage JSON,
// streamd's /jobs/{id}/coverage body). All counter-valued fields are
// float64 because they come from the flattened gauge map.
type Report struct {
	// SeqElems/IndexedElems split the svm layer's gather+scatter
	// elements by access pattern.
	SeqElems     float64 `json:"seq_elems"`
	IndexedElems float64 `json:"indexed_elems"`
	// Arrays lists per-array traffic, heaviest first.
	Arrays []Array `json:"arrays,omitempty"`
	// Bandwidth is the per-level traffic and roofline summary.
	Bandwidth obs.BandwidthReport `json:"bandwidth"`
}

// Array is one array's traffic split.
type Array struct {
	Name         string  `json:"name"`
	Elems        float64 `json:"elems"`
	IndexedElems float64 `json:"indexed_elems"`
}

// New derives the report from a flattened metrics map
// (obs.FlattenSnapshot of the run's registry), the stream run's total
// cycles and the machine configuration (for the roofline peak).
func New(metrics map[string]float64, streamCycles uint64, cfg sim.Config) Report {
	rep := Report{
		SeqElems:     metrics["svm.gather.seq_elems"] + metrics["svm.scatter.seq_elems"],
		IndexedElems: metrics["svm.gather.indexed_elems"] + metrics["svm.scatter.indexed_elems"],
		Bandwidth: obs.NewBandwidthReport(metrics, streamCycles,
			cfg.BusBytesPerCycle*cfg.BusEff),
	}
	for key, v := range metrics {
		name, ok := strings.CutPrefix(key, "coverage.array.")
		if !ok {
			continue
		}
		name, ok = strings.CutSuffix(name, ".elems")
		if !ok || strings.HasSuffix(name, ".indexed") {
			continue
		}
		rep.Arrays = append(rep.Arrays, Array{
			Name:         name,
			Elems:        v,
			IndexedElems: metrics["coverage.array."+name+".indexed_elems"],
		})
	}
	sort.Slice(rep.Arrays, func(i, j int) bool {
		if rep.Arrays[i].Elems != rep.Arrays[j].Elems {
			return rep.Arrays[i].Elems > rep.Arrays[j].Elems
		}
		return rep.Arrays[i].Name < rep.Arrays[j].Name
	})
	return rep
}

// Render writes the human-readable traffic report.
func (r Report) Render(w io.Writer) {
	if r.SeqElems+r.IndexedElems > 0 {
		fmt.Fprintf(w, "  bulk elements: %.0f sequential, %.0f indexed\n", r.SeqElems, r.IndexedElems)
	}
	if len(r.Arrays) > 0 {
		fmt.Fprintln(w, "  per-array elements (indexed fraction):")
		for _, a := range r.Arrays {
			frac := 0.0
			if a.Elems > 0 {
				frac = 100 * a.IndexedElems / a.Elems
			}
			fmt.Fprintf(w, "    %-16s %12.0f  %5.1f%% indexed\n", a.Name, a.Elems, frac)
		}
	}
	fmt.Fprintln(w, "  bandwidth by level:")
	r.Bandwidth.Render(w)
}
