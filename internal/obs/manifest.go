package obs

// RunRecord is the manifest entry of one simulated application run:
// enough identity (the full design-point key) and outcome to compare
// two sweeps mechanically.
type RunRecord struct {
	App string `json:"app"`
	// System is the short design-point label ("cawa", "gto+cacp").
	System string `json:"system"`
	// SystemKey is the full core.SystemConfig.Key() identity; runs
	// whose design point carries non-keyable behaviour fall back to
	// the label.
	SystemKey string  `json:"system_key"`
	Seconds   float64 `json:"seconds"`
	Launches  int     `json:"launches"`
	Cycles    int64   `json:"cycles"`
	Instrs    int64   `json:"instructions"`
	IPC       float64 `json:"ipc"`
	Warps     int     `json:"warps"`
	// Err records a failed run (stats fields are zero).
	Err string `json:"error,omitempty"`
}

// Manifest captures one harness session — architecture, workload
// scaling, worker count, run-cache effectiveness, and every simulation
// the worker pool executed — in one JSON document.
type Manifest struct {
	Architecture string  `json:"architecture"`
	NumSMs       int     `json:"num_sms"`
	Scale        float64 `json:"scale"`
	Seed         int64   `json:"seed"`
	Workers      int     `json:"workers"`
	// CacheHits counts Session.Run requests served from the result
	// cache (including singleflight waiters); CacheMisses counts
	// actual simulations.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// DiskHits counts in-memory misses answered by the persistent disk
	// cache without simulating (zero when no disk cache is attached).
	DiskHits uint64 `json:"disk_hits,omitempty"`
	// DiskWriteErrors counts result write-throughs the disk cache
	// refused; those results will be simulated again after a restart.
	DiskWriteErrors uint64      `json:"disk_write_errors,omitempty"`
	WallSeconds     float64     `json:"wall_seconds"`
	Runs            []RunRecord `json:"runs"`
}
