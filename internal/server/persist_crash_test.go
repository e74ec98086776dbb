//go:build unix

package server

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"graphmat/algorithms"
)

// crashChildEnv names the data directory handed to the re-exec'd child. The
// child registers the pre-seeded graph, applies batches — printing
// "ACKED <epoch>" after each accepted one — and then SIGKILLs itself with no
// chance to flush or checkpoint.
const crashChildEnv = "GRAPHMAT_CRASH_DIR"

func TestPersistCrashRecovery(t *testing.T) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		persistCrashChild(dir)
		return
	}

	// Seed the directory in-process: registration writes generation 0.
	dir := t.TempDir()
	reg := NewRegistry(0, 1, dir)
	entry, err := reg.AddCOO("g", "seed", persistTestAdj(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := entry.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil); err != nil {
		t.Fatal(err)
	}

	// Re-exec this test binary as the crashing process.
	cmd := exec.Command(os.Args[0], "-test.run", "TestPersistCrashRecovery$", "-test.v")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child exited cleanly; it was supposed to SIGKILL itself\n%s", out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("child did not die by SIGKILL: %v\n%s", err, out)
	}
	var acked []uint64
	for sc := bufio.NewScanner(strings.NewReader(string(out))); sc.Scan(); {
		if e, found := strings.CutPrefix(strings.TrimSpace(sc.Text()), "ACKED "); found {
			n, err := strconv.ParseUint(e, 10, 64)
			if err != nil {
				t.Fatalf("bad ack line %q: %v", sc.Text(), err)
			}
			acked = append(acked, n)
		}
	}
	if len(acked) != 2 || acked[0] != 1 || acked[1] != 2 {
		t.Fatalf("child acked %v, want [1 2]\n%s", acked, out)
	}

	// Recovery: every acked batch must be there; nothing else may be.
	reg2 := NewRegistry(0, 1, dir)
	entry2, err := reg2.Add("g", mustNotParseSource(dir))
	if err != nil {
		t.Fatal(err)
	}
	ps := entry2.PersistStats()
	if ps.Boot != "snapshot+wal" {
		t.Errorf("boot = %q, want snapshot+wal (acked batches live only in the WAL)", ps.Boot)
	}
	if entry2.Epoch() != acked[len(acked)-1] {
		t.Errorf("recovered epoch %d, want %d: an acked batch was lost", entry2.Epoch(), acked[len(acked)-1])
	}
	if ps.ReplayedBatches != int64(len(acked)) {
		t.Errorf("replayed %d batches, want %d", ps.ReplayedBatches, len(acked))
	}
	// The recovered state is queryable and matches an oracle built fresh from
	// the same seed + batches.
	oracleReg := NewRegistry(0, 1, "")
	oracle, err := oracleReg.AddCOO("g", "seed", persistTestAdj(64))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range persistTestBatches() {
		if _, _, err := oracle.ApplyEdges(b); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := oracle.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := entry2.RunContext(t.Context(), "bfs", algorithms.Params{Source: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, "bfs after crash recovery", ref.Values, got.Values)
}

// persistCrashChild is the process under test: it boots from the seeded
// directory, applies the update batches (each ack printed only after
// ApplyEdges returned, i.e. after the WAL fsync), then dies mid-flight.
func persistCrashChild(dir string) {
	reg := NewRegistry(0, 1, dir)
	entry, err := reg.Add("g", mustNotParseSource(dir))
	if err != nil {
		fmt.Println("CHILD ERROR:", err)
		os.Exit(3)
	}
	for _, b := range persistTestBatches() {
		epoch, _, err := entry.ApplyEdges(b)
		if err != nil {
			fmt.Println("CHILD ERROR:", err)
			os.Exit(3)
		}
		fmt.Printf("ACKED %d\n", epoch)
	}
	os.Stdout.Sync()
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
}
