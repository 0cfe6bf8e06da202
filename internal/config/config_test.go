package config

import (
	"strings"
	"testing"
)

func TestGTX480MatchesTable1(t *testing.T) {
	c := GTX480()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.NumSMs != 15 || c.MaxWarpsPerSM != 48 || c.MaxBlocksPerSM != 8 ||
		c.SchedulersPerSM != 2 || c.RegistersPerSM != 32768 || c.WarpSize != 32 {
		t.Fatalf("core parameters drifted: %+v", c)
	}
	if got := c.L1D.SizeBytes(); got != 16*1024 {
		t.Fatalf("L1D size %d", got)
	}
	if got := c.L1I.SizeBytes(); got != 2*1024 {
		t.Fatalf("L1I size %d", got)
	}
	if got := c.L2.SizeBytes(); got != 768*1024 {
		t.Fatalf("L2 size %d, want 768KB", got)
	}
	if c.L2Latency != 120 || c.DRAMLatency != 220 {
		t.Fatalf("latencies %d/%d", c.L2Latency, c.DRAMLatency)
	}
	if c.SharedMemPerSM != 48*1024 {
		t.Fatalf("shared mem %d", c.SharedMemPerSM)
	}
}

func TestString(t *testing.T) {
	s := GTX480().String()
	for _, want := range []string{
		"15", "48", "16KB per SM (8-sets/16-ways)",
		"768KB unified cache (64-sets/16-ways/6-banks)",
		"120 cycles", "220 cycles", "32 threads",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 rendering missing %q:\n%s", want, s)
		}
	}
}

func TestSmall(t *testing.T) {
	c := Small()
	if err := c.Validate(); err != nil {
		t.Fatalf("small config invalid: %v", err)
	}
	if c.NumSMs != 2 {
		t.Fatalf("small SMs %d", c.NumSMs)
	}
	// Cache geometry unchanged from GTX480.
	if c.L1D != GTX480().L1D {
		t.Fatal("small config changed the L1D")
	}
}

func TestValidateRejects(t *testing.T) {
	break_ := func(f func(*Config)) Config {
		c := GTX480()
		f(&c)
		return c
	}
	bad := []Config{
		break_(func(c *Config) { c.NumSMs = 0 }),
		break_(func(c *Config) { c.MaxWarpsPerSM = -1 }),
		break_(func(c *Config) { c.MaxWarpsPerSM = 300 }), // beyond MaxSlots
		break_(func(c *Config) { c.MaxBlocksPerSM = 0 }),
		break_(func(c *Config) { c.SchedulersPerSM = 0 }),
		break_(func(c *Config) { c.WarpSize = 0 }),
		break_(func(c *Config) { c.WarpSize = 65 }),
		break_(func(c *Config) { c.L2Banks = 0 }),
		break_(func(c *Config) { c.DRAMChannels = 0 }),
		break_(func(c *Config) { c.ALULatency = 0 }),
		break_(func(c *Config) { c.L1HitLatency = 0 }),
		break_(func(c *Config) { c.L1D.Sets = 0 }),
		break_(func(c *Config) { c.L1D.Ways = 0 }),
		break_(func(c *Config) { c.L1D.LineBytes = 100 }), // not a power of two
		break_(func(c *Config) { c.L1D.LineBytes = 64 }),  // mismatch with L2
		break_(func(c *Config) { c.L2.MSHRs = -1 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := break_(func(c *Config) { c.MaxWarpsPerSM = MaxSlots }).Validate(); err != nil {
		t.Errorf("%d warps per SM rejected: %v", MaxSlots, err)
	}
}

func TestCacheConfigSize(t *testing.T) {
	cc := CacheConfig{Sets: 8, Ways: 16, LineBytes: 128}
	if got := cc.SizeBytes(); got != 16384 {
		t.Fatalf("size %d", got)
	}
	// Non-power-of-two set counts are allowed (banked L2).
	cc = CacheConfig{Sets: 384, Ways: 16, LineBytes: 128}
	if err := cc.Validate(); err != nil {
		t.Fatalf("banked geometry rejected: %v", err)
	}
}
