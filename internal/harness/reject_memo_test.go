package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"cawa/internal/config"
	"cawa/internal/workloads"
)

// TestRejectMemoByteIdentity pins the two MSHR-bound applications —
// backprop and b+tree, whose warps spend most cycles being refused by a
// full MSHR table — on the full GTX480 under lrr/gto/cawa to the result
// digests the repository's benchmark recorded before the SM remembered
// refusals and before spans were the run loop
// (cmd/cawaperf/testdata/digests_seed7.json: SHA-256 of the Result's
// JSON, mem_retry's cells). A refusal remembered one L1D change too
// long shifts an issue by a cycle and changes every digest here.
func TestRejectMemoByteIdentity(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("six GTX480 simulations; the race matrix covers the engine on smaller cells")
	}
	data, err := os.ReadFile("../../cmd/cawaperf/testdata/digests_seed7.json")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	cfg := config.GTX480()
	params := workloads.Params{Scale: 0.05, Seed: 7}
	for _, app := range []string{"backprop", "b+tree"} {
		for _, sys := range matrixSystems {
			sysKey, err := sys.sc.Key()
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s|scale=%g|%s|%s", cfg.Name, params.Scale, app, sysKey)
			want, ok := golden[key]
			if !ok {
				t.Fatalf("no pinned digest for %s", key)
			}
			res, err := Run(RunOptions{Workload: app, Params: params, System: sys.sc, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s: result digest %s, pinned %s", key, got[:12], want[:12])
			}
		}
	}
}
