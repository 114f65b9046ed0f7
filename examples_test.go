package anyk_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestExamples builds every program under examples/ and runs each one: all
// must exit 0 within a minute. They run at the default parallelism, so they
// drive the sharded enumeration and the merge end to end as well.
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the example programs")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	progs, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 9 {
		t.Fatalf("built %d example programs, want 9", len(progs))
	}
	for _, p := range progs {
		t.Run(p.Name(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if out, err := exec.CommandContext(ctx, filepath.Join(bin, p.Name())).CombinedOutput(); err != nil {
				t.Fatalf("%s: %v\n%s", p.Name(), err, out)
			}
		})
	}
}
