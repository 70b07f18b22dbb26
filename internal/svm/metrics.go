package svm

import (
	"sync"

	"streamgpp/internal/obs"
)

// opCounters holds the resolved instrument handles for one bulk
// operation kind.
type opCounters struct {
	strips, elems, arrayBytes *obs.Counter
	// seqElems/idxElems split elems by access pattern: sequential
	// (constant-stride) versus indexed (data-dependent — see
	// observeOp).
	seqElems, idxElems *obs.Counter
}

// arrayCounters holds the per-array traffic handles, keyed by the
// array's name: total elements touched and how many of them arrived
// through an index.
type arrayCounters struct {
	elems, idxElems *obs.Counter
}

// regCounters caches the handles per registry, so the per-strip
// observeOp avoids registry map lookups and string concatenations on
// every call.
type regCounters struct {
	gather, scatter opCounters

	// arrays caches per-array handles. Guarded by mu: strips from the
	// two SMT contexts run on one goroutine each under the engine, but
	// independent machines may share a registry under the parallel
	// experiment runner.
	mu     sync.Mutex
	arrays map[string]*arrayCounters
}

// arrayCounters resolves (and caches) the handles for one array name.
func (rc *regCounters) arrayCounters(r *obs.Registry, name string) *arrayCounters {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if ac, ok := rc.arrays[name]; ok {
		return ac
	}
	ac := &arrayCounters{
		elems:    r.Counter("coverage.array." + name + ".elems"),
		idxElems: r.Counter("coverage.array." + name + ".indexed_elems"),
	}
	rc.arrays[name] = ac
	return ac
}

// counterCache maps *obs.Registry → *regCounters. Registries are
// long-lived relative to strips (one per tool invocation or test), so
// the cache stays tiny. sync.Map because independent machines may run
// on concurrent goroutines under the parallel experiment runner.
var counterCache sync.Map

func countersFor(r *obs.Registry) *regCounters {
	if v, ok := counterCache.Load(r); ok {
		return v.(*regCounters)
	}
	rc := &regCounters{
		gather: opCounters{
			strips:     r.Counter("svm.gather.strips"),
			elems:      r.Counter("svm.gather.elems"),
			arrayBytes: r.Counter("svm.gather.array_bytes"),
			seqElems:   r.Counter("svm.gather.seq_elems"),
			idxElems:   r.Counter("svm.gather.indexed_elems"),
		},
		scatter: opCounters{
			strips:     r.Counter("svm.scatter.strips"),
			elems:      r.Counter("svm.scatter.elems"),
			arrayBytes: r.Counter("svm.scatter.array_bytes"),
			seqElems:   r.Counter("svm.scatter.seq_elems"),
			idxElems:   r.Counter("svm.scatter.indexed_elems"),
		},
		arrays: make(map[string]*arrayCounters),
	}
	v, _ := counterCache.LoadOrStore(r, rc)
	return v.(*regCounters)
}
