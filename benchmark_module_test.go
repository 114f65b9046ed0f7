package anyk_test

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModule vets and tests the nested benchmark/ module. It is a
// module of its own (go.mod with `replace anyk => ../`), so `go test ./...`
// at the root never compiles it; this test is what makes an exported-name
// change in dpgraph, core or engine that stops the harness building — or
// fails its smoke run of all eight workloads at -scale 0.01 — fail tier-1.
func TestBenchmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark module's ~10 s smoke test")
	}
	for _, args := range [][]string{
		{"vet", "-C", "benchmark", "./..."},
		{"test", "-C", "benchmark", "./..."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}
