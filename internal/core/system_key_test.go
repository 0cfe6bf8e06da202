package core

import (
	"strings"
	"testing"

	"cawa/internal/sm"
)

// TestSystemConfigKeyStable: keys must be value-derived — identical
// design points built independently key identically, distinct ones
// distinctly, and no pointer formatting may leak in.
func TestSystemConfigKeyStable(t *testing.T) {
	mk := func() SystemConfig {
		cfg := DefaultCACPConfig()
		cfg.CriticalWays = 4
		return SystemConfig{Scheduler: "gcaws", CPL: true, CACP: true, CACPConfig: &cfg}
	}
	k1, err := mk().Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := mk().Key() // fresh CACPConfig pointer, same values
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("identical design points keyed differently:\n%s\n%s", k1, k2)
	}
	if strings.Contains(k1, "0x") {
		t.Fatalf("key leaks pointer formatting: %s", k1)
	}

	other := mk()
	otherCfg := *other.CACPConfig
	otherCfg.CriticalWays = 8
	other.CACPConfig = &otherCfg
	k3, err := other.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("distinct CACP configurations collided")
	}

	// Every CACPConfig key spells out the retired options as false, so
	// that no disk-cache entry moves when CACP options come and go: the
	// 4-way point above is abl-partition's "4/16" column.
	if want := "gcaws|cpl=true|cacp=true|ways=4|sig=0|line=128|noship=false|nopart=false|dyn=false|srrip=false"; k1 != want {
		t.Fatalf("ablation key moved:\n got %s\nwant %s", k1, want)
	}
	if !strings.Contains(k3, "|dyn=false|") {
		t.Fatalf("key %s lost the retired dyn=false word", k3)
	}
}

// TestSystemConfigKeyVariant: function-valued fields require a Variant
// label, and the label differentiates keys.
func TestSystemConfigKeyVariant(t *testing.T) {
	tweak := func(c *CPL) { c.DisableInstTerm = true }
	if _, err := (SystemConfig{Scheduler: "gcaws", CPL: true, CPLTweak: tweak}).Key(); err == nil {
		t.Fatal("CPLTweak without Variant keyed")
	}
	override := func() sm.CriticalityProvider { return NewCPL() }
	if _, err := (SystemConfig{Scheduler: "lrr", ProviderOverride: override}).Key(); err == nil {
		t.Fatal("ProviderOverride without Variant keyed")
	}
	ka, err := (SystemConfig{Scheduler: "gcaws", CPL: true, CPLTweak: tweak, Variant: "a"}).Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := (SystemConfig{Scheduler: "gcaws", CPL: true, CPLTweak: tweak, Variant: "b"}).Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Fatal("distinct Variants collided")
	}
}

// TestSystemConfigKeyOracle: oracle profiles hash into the key —
// identical tables key identically regardless of construction order,
// distinct tables key distinctly.
func TestSystemConfigKeyOracle(t *testing.T) {
	o1 := map[int]float64{1: 10, 2: 20, 3: 30}
	o2 := map[int]float64{3: 30, 2: 20, 1: 10} // same entries, other order
	o3 := map[int]float64{1: 10, 2: 20, 3: 31}
	k1, err := (SystemConfig{Scheduler: "caws", Oracle: o1}).Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := (SystemConfig{Scheduler: "caws", Oracle: o2}).Key()
	if err != nil {
		t.Fatal(err)
	}
	k3, err := (SystemConfig{Scheduler: "caws", Oracle: o3}).Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("oracle fingerprint depends on map order")
	}
	if k1 == k3 {
		t.Fatal("distinct oracle tables collided")
	}
}
