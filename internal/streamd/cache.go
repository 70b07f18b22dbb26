package streamd

import "sync"

// cache is the content-addressed result store: canonical-config hash →
// artifacts. Determinism makes this sound — a key collision is the
// same run, so serving the stored bytes is indistinguishable from
// re-running. Bounded FIFO: when full, the oldest entry is evicted
// (an evicted key simply re-runs on its next miss; correctness never
// depends on residency).
type cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*artifacts
	order   []string // insertion order, for eviction
}

func newCache(max int) *cache {
	return &cache{max: max, entries: make(map[string]*artifacts)}
}

// get returns the cached artifacts for key. Hits and misses are
// counted by the server, at the job transitions they cause.
func (c *cache) get(key string) (*artifacts, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.entries[key]
	return a, ok
}

// put stores the artifacts, evicting the oldest entry when full. A
// concurrent duplicate run storing the same key is harmless: the
// simulator is deterministic, so both values are byte-identical.
func (c *cache) put(key string, a *artifacts) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		c.entries[key] = a
		return
	}
	for len(c.order) >= c.max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	c.entries[key] = a
	c.order = append(c.order, key)
}

// len returns the resident entry count.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
