package harness

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cawa/internal/config"
	"cawa/internal/workloads"
)

// update regenerates testdata/tables from the code under test
// (go test ./internal/harness -run TestExperimentsProduceTables -update).
var update = flag.Bool("update", false, "rewrite the golden experiment tables in testdata/tables")

func testSession() *Session {
	return NewSession(config.Small(), workloads.Params{Scale: 0.25, Seed: 7})
}

// TestExperimentsProduceTables runs every registered experiment on a
// reduced configuration and compares each rendered table byte for byte
// with its golden file.
func TestExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	s := testSession()
	for _, id := range ExperimentIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := RunExperiment(id, s)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if tbl.Rows() == 0 {
				t.Fatalf("%s: empty table", id)
			}
			got := tbl.String()
			golden := filepath.Join("testdata", "tables", id+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%s: %v (run with -update to record)", id, err)
			}
			if got != string(want) {
				t.Fatalf("%s differs from %s:\n--- got ---\n%s--- want ---\n%s", id, golden, got, want)
			}
		})
	}
}
