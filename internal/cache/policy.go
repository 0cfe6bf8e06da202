package cache

// LRU is the least-recently-used replacement policy, used by the
// baseline L1 data cache and the L2.
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "LRU" }

// OnFill implements Policy.
func (LRU) OnFill(c *Cache, set, way int, _ Request) {
	c.Line(set, way).LRU = c.NextTick()
}

// OnHit implements Policy.
func (LRU) OnHit(c *Cache, set, way int, _ Request) {
	c.Line(set, way).LRU = c.NextTick()
}

// Victim implements Policy: the valid line with the oldest stamp.
func (LRU) Victim(c *Cache, set int, _ Request) int {
	lines := c.Set(set)
	victim, oldest := 0, ^uint64(0)
	for w := range lines {
		if lines[w].LRU < oldest {
			victim, oldest = w, lines[w].LRU
		}
	}
	return victim
}

// OnEvict implements Policy.
func (LRU) OnEvict(*Cache, int, int, *Eviction) {}

// LRUVictimAmong picks the least-recently-used valid line restricted to
// the given ways (nil means all ways), for partitioned LRU policies.
func LRUVictimAmong(c *Cache, set int, ways []int) int {
	lines := c.Set(set)
	if ways == nil {
		return LRU{}.Victim(c, set, Request{})
	}
	victim, oldest := ways[0], ^uint64(0)
	for _, w := range ways {
		if lines[w].LRU < oldest {
			victim, oldest = w, lines[w].LRU
		}
	}
	return victim
}
