package cache

import "cawa/internal/state"

// Archive walks a cache's tag/state array — every line, replacement and
// CACP training fields included — the logical LRU clock, the access
// counters, and the replacement policy's own state (policies keep their
// per-line state inside Line; only CACP has tables of its own). The
// geometry must match the cache the checkpoint was taken from.
func (c *Cache) Archive(a *state.Archive) {
	a.Tag("cache")
	state.Table(a, "cache set", c.sets, func(set *[]Line, a *state.Archive) {
		state.Table(a, "cache way", *set, (*Line).Archive)
	})
	state.Int(a, &c.tick, &c.Accesses, &c.Hits, &c.Misses, &c.Evictions)
	a.Part("cache policy", c.policy)
}

// Archive walks one line. An invalid line is the zero Line (Fill and
// Flush are its only writers), so Valid is all it carries.
func (l *Line) Archive(a *state.Archive) {
	if a.Bool(&l.Valid); !l.Valid {
		if a.Loading() {
			*l = Line{}
		}
		return
	}
	a.Bool(&l.Dirty, &l.CReuse, &l.NCReuse, &l.InCritical, &l.FillCritical)
	state.Int(a, &l.Tag)
	state.Int(a, &l.RRPV)
	state.Int(a, &l.LRU)
	state.Int(a, &l.Sig)
	state.Int(a, &l.FillPC, &l.FillWarp)
	state.Int(a, &l.Refs)
}

// Archive walks one request (MSHR entries and memory events carry them).
func (r *Request) Archive(a *state.Archive) {
	state.Int(a, &r.Addr)
	state.Int(a, &r.PC)
	state.Int(a, &r.Warp)
	a.Bool(&r.Critical, &r.Write)
}

// LRU and SRRIP keep all their state in the lines.
func (LRU) Archive(a *state.Archive)   { a.Tag("lru") }
func (SRRIP) Archive(a *state.Archive) { a.Tag("srrip") }
