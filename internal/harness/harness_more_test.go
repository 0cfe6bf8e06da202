package harness

import (
	"encoding/json"
	"strings"
	"testing"

	"cawa/internal/core"
	"cawa/internal/stats"
)

func TestTableFormatting(t *testing.T) {
	tbl := NewTable("t1", "demo", "name", "a", "b")
	tbl.AddRow("x", 1, 2.5)
	tbl.AddTextRow("y", "p", "q")
	tbl.Note = "note line"
	s := tbl.String()
	for _, want := range []string{"t1", "demo", "note line", "2.500", "p"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	if tbl.Rows() != 2 || tbl.Label(0) != "x" || tbl.Value(0, 1) != "2.500" {
		t.Fatalf("accessors broken: %q %q", tbl.Label(0), tbl.Value(0, 1))
	}
	// Integers collapse to plain form.
	if tbl.Value(0, 0) != "1" {
		t.Fatalf("int formatting %q", tbl.Value(0, 0))
	}
}

func TestTableJSON(t *testing.T) {
	tbl := NewTable("fx", "json demo", "name", "v")
	tbl.AddRow("a", 1.25)
	doc, err := json.Marshal(tbl)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		ID      string   `json:"id"`
		Columns []string `json:"columns"`
		Rows    []struct {
			Label  string   `json:"label"`
			Values []string `json:"values"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != "fx" || len(back.Rows) != 1 || back.Rows[0].Values[0] != "1.250" {
		t.Fatalf("roundtrip: %+v", back)
	}
}

func TestPaperAppsRegistered(t *testing.T) {
	if len(PaperApps) != 12 {
		t.Fatalf("paper app list has %d entries", len(PaperApps))
	}
	if len(SensApps()) != 7 || len(NonSensApps()) != 5 {
		t.Fatalf("category split %d/%d", len(SensApps()), len(NonSensApps()))
	}
}

func TestSessionCaching(t *testing.T) {
	s := testSession()
	r1, err := s.Run("needle", core.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run("needle", core.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("identical design point re-simulated")
	}
	r3, err := s.Run("needle", core.SystemConfig{Scheduler: "gto"})
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Fatal("different design points shared a cache entry")
	}
}

func TestOracleForCoversAllWarps(t *testing.T) {
	s := testSession()
	oracle, err := s.OracleFor("needle")
	if err != nil {
		t.Fatal(err)
	}
	base, _ := s.Baseline("needle")
	if len(oracle) != len(base.Agg.Warps) {
		t.Fatalf("oracle entries %d, warps %d", len(oracle), len(base.Agg.Warps))
	}
	for gid, v := range oracle {
		if v <= 0 {
			t.Fatalf("oracle[%d] = %v", gid, v)
		}
	}
}

func TestCriticalGIDs(t *testing.T) {
	agg := &stats.Launch{Warps: []stats.WarpRecord{
		{GID: 0, Block: 0, FinishCycle: 100},
		{GID: 1, Block: 0, FinishCycle: 300},
		{GID: 2, Block: 1, FinishCycle: 50},
	}}
	crit := CriticalGIDs(agg, 2)
	if !crit[1] || crit[0] || crit[2] {
		t.Fatalf("critical set %v", crit)
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if _, err := Run(RunOptions{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := RunExperiment("nope", testSession()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "tab1", "tab2", "sec552",
		"abl-cpl", "abl-greedy", "abl-partition", "abl-signature",
	}
	ids := ExperimentIDs()
	have := make(map[string]bool, len(ids))
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registered %d experiments, want %d: %v", len(ids), len(want), ids)
	}
}
