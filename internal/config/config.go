// Package config holds the architectural configuration of the simulated GPU.
//
// The default values reproduce Table 1 of the CAWA paper (ISCA'15): an
// NVIDIA Fermi GTX480 as modeled by GPGPU-sim 3.2.0, with the per-SM L1
// data cache configured as 16-way set-associative.
package config

import (
	"errors"
	"fmt"
)

// MaxSlots bounds MaxWarpsPerSM: an SM names a warp slot in 8 bits of
// each in-flight load's token (internal/sm), so slot 256 would alias
// slot 0.
const MaxSlots = 256

// Config describes one simulated GPU. The zero value is not usable; start
// from GTX480() or Small() and override fields as needed, then Validate.
type Config struct {
	// Name labels the configuration in reports.
	Name string

	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// MaxWarpsPerSM bounds concurrent warps resident on one SM (at
	// most MaxSlots).
	MaxWarpsPerSM int
	// MaxBlocksPerSM bounds concurrent thread-blocks resident on one SM.
	MaxBlocksPerSM int
	// SchedulersPerSM is the number of warp schedulers (issue slots) per SM.
	SchedulersPerSM int
	// RegistersPerSM is the register-file capacity in 32-bit registers.
	RegistersPerSM int
	// SharedMemPerSM is the shared-memory capacity in bytes.
	SharedMemPerSM int
	// WarpSize is the SIMD width in threads.
	WarpSize int

	// L1D configures the per-SM L1 data cache.
	L1D CacheConfig
	// L1I configures the per-SM L1 instruction cache.
	L1I CacheConfig
	// L2 configures the shared, banked L2 cache.
	L2 CacheConfig
	// L2Banks is the number of independently ported L2 banks.
	L2Banks int
	// L2Latency is the minimum round-trip latency (cycles) of an L1 miss
	// serviced by the L2 (interconnect + bank access).
	L2Latency int
	// DRAMLatency is the minimum round-trip latency (cycles) of a request
	// serviced by DRAM.
	DRAMLatency int
	// DRAMBandwidth is the number of cycles between consecutive DRAM
	// request completions per channel (inverse bandwidth).
	DRAMBandwidth int
	// DRAMChannels is the number of DRAM channels.
	DRAMChannels int

	// L1HitLatency is the load-to-use latency (cycles) of an L1D hit.
	L1HitLatency int
	// SharedMemLatency is the load-to-use latency of a shared-memory access.
	SharedMemLatency int

	// ALULatency is the latency (cycles) of simple integer/logic operations.
	ALULatency int
	// SFULatency is the latency of special-function operations
	// (div, sqrt, transcendental).
	SFULatency int
	// FPULatency is the latency of floating-point add/mul operations.
	FPULatency int

	// MaxCycles aborts a simulation that exceeds this cycle count
	// (a run-away guard; 0 means no limit).
	MaxCycles int64
}

// CacheConfig describes a single cache.
type CacheConfig struct {
	// Sets is the number of cache sets (power of two).
	Sets int
	// Ways is the associativity.
	Ways int
	// LineBytes is the cache-line size in bytes (power of two).
	LineBytes int
	// MSHRs is the number of miss-status holding registers
	// (maximum distinct outstanding miss lines).
	MSHRs int
	// MSHRTargets is the maximum merged requests per MSHR entry.
	MSHRTargets int
}

// SizeBytes returns the total data capacity of the cache.
func (c CacheConfig) SizeBytes() int { return c.Sets * c.Ways * c.LineBytes }

// Validate reports whether the cache geometry is well formed.
func (c CacheConfig) Validate() error {
	switch {
	case c.Sets <= 0:
		return fmt.Errorf("config: cache sets %d must be positive", c.Sets)
	case c.Ways <= 0:
		return fmt.Errorf("config: cache ways %d must be positive", c.Ways)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("config: cache line size %d must be a positive power of two", c.LineBytes)
	case c.MSHRs < 0 || c.MSHRTargets < 0:
		return errors.New("config: MSHR parameters must be non-negative")
	}
	return nil
}

// GTX480 returns the paper's Table 1 configuration: an NVIDIA Fermi GTX480
// with the L1 data cache arranged as 8 sets x 16 ways x 128B = 16KB.
func GTX480() Config {
	return Config{
		Name:            "GTX480",
		NumSMs:          15,
		MaxWarpsPerSM:   48,
		MaxBlocksPerSM:  8,
		SchedulersPerSM: 2,
		RegistersPerSM:  32768,
		SharedMemPerSM:  48 * 1024,
		WarpSize:        32,
		L1D:             CacheConfig{Sets: 8, Ways: 16, LineBytes: 128, MSHRs: 32, MSHRTargets: 8},
		L1I:             CacheConfig{Sets: 4, Ways: 4, LineBytes: 128, MSHRs: 4, MSHRTargets: 4},
		// Table 1 lists the L2 as 64 sets x 16 ways x 6 banks of 128B
		// lines = 768KB; the tag array models all banks together.
		L2:               CacheConfig{Sets: 64 * 6, Ways: 16, LineBytes: 128, MSHRs: 64, MSHRTargets: 8},
		L2Banks:          6,
		L2Latency:        120,
		DRAMLatency:      220,
		DRAMBandwidth:    4,
		DRAMChannels:     6,
		L1HitLatency:     6,
		SharedMemLatency: 6,
		ALULatency:       4,
		SFULatency:       16,
		FPULatency:       6,
		MaxCycles:        200_000_000,
	}
}

// Small returns a reduced configuration (fewer SMs) convenient for unit
// tests and quick experiments. Cache geometry matches GTX480 so per-SM
// cache behaviour is unchanged; only parallel width differs.
func Small() Config {
	c := GTX480()
	c.Name = "GTX480-small"
	c.NumSMs = 2
	return c
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return errors.New("config: NumSMs must be positive")
	case c.MaxWarpsPerSM <= 0 || c.MaxWarpsPerSM > MaxSlots:
		return fmt.Errorf("config: MaxWarpsPerSM %d out of range (1..%d)", c.MaxWarpsPerSM, MaxSlots)
	case c.MaxBlocksPerSM <= 0:
		return errors.New("config: MaxBlocksPerSM must be positive")
	case c.SchedulersPerSM <= 0:
		return errors.New("config: SchedulersPerSM must be positive")
	case c.WarpSize <= 0 || c.WarpSize > 64:
		return fmt.Errorf("config: WarpSize %d out of range (1..64)", c.WarpSize)
	case c.L2Banks <= 0:
		return errors.New("config: L2Banks must be positive")
	case c.DRAMChannels <= 0:
		return errors.New("config: DRAMChannels must be positive")
	case c.L2Latency < 0 || c.DRAMLatency < 0:
		return errors.New("config: latencies must be non-negative")
	case c.ALULatency <= 0 || c.FPULatency <= 0 || c.SFULatency <= 0:
		return errors.New("config: functional-unit latencies must be positive")
	case c.L1HitLatency <= 0:
		return errors.New("config: L1HitLatency must be positive")
	}
	if err := c.L1D.Validate(); err != nil {
		return fmt.Errorf("L1D: %w", err)
	}
	if err := c.L1I.Validate(); err != nil {
		return fmt.Errorf("L1I: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if c.L1D.LineBytes != c.L2.LineBytes {
		return errors.New("config: L1D and L2 line sizes must match")
	}
	return nil
}

// String renders the configuration as the rows of the paper's Table 1.
func (c Config) String() string {
	return fmt.Sprintf(`Architecture              %s
Num. of SMs               %d
Max. # of Warps per SM    %d
Max. # of Blocks per SM   %d
# of Schedulers per SM    %d
# of Registers per SM     %d
Shared Memory             %dKB
L1 Data Cache             %dKB per SM (%d-sets/%d-ways)
L1 Inst Cache             %dKB per SM (%d-sets/%d-ways)
L2 Cache                  %dKB unified cache (%d-sets/%d-ways/%d-banks)
Min. L2 Access Latency    %d cycles
Min. DRAM Access Latency  %d cycles
Warp Size (SIMD Width)    %d threads`,
		c.Name, c.NumSMs, c.MaxWarpsPerSM, c.MaxBlocksPerSM, c.SchedulersPerSM,
		c.RegistersPerSM, c.SharedMemPerSM/1024,
		c.L1D.SizeBytes()/1024, c.L1D.Sets, c.L1D.Ways,
		c.L1I.SizeBytes()/1024, c.L1I.Sets, c.L1I.Ways,
		c.L2.SizeBytes()/1024, c.L2.Sets/c.L2Banks, c.L2.Ways, c.L2Banks,
		c.L2Latency, c.DRAMLatency, c.WarpSize)
}
