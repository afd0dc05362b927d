package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata .golden files from current analyzer output")

// moduleRoot walks up to go.mod (internal/lint -> repo root).
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// checkFixture runs the full analyzer suite over one testdata fixture
// package as though it had the given import path, and renders findings
// in the golden format (basename:line:col: analyzer: message).
func checkFixture(t *testing.T, fixture, asPath string) string {
	t.Helper()
	root := moduleRoot(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := CheckDir(root, dir, asPath, Analyzers())
	if err != nil {
		t.Fatalf("CheckDir(%s): %v", fixture, err)
	}
	var b strings.Builder
	for _, f := range findings {
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", filepath.Base(f.File), f.Line, f.Col, f.Analyzer, f.Message)
	}
	return b.String()
}

func compareGolden(t *testing.T, fixture, got string) {
	t.Helper()
	golden := filepath.Join("testdata", "src", fixture, fixture+".golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/lint -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings diverge from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// The golden files pin, per analyzer, both the firing and the
// non-firing cases: the violation lines appear, the fixed shapes
// (sorted-after-range, pre-resolved child, injected clock, seeded
// stream) and reason-carrying waivers do not, and bare or stale
// waivers fire as waiver findings.

func TestMapOrderGolden(t *testing.T) {
	compareGolden(t, "maporder", checkFixture(t, "maporder", "mrvd/internal/sim"))
}

func TestWallClockGolden(t *testing.T) {
	compareGolden(t, "wallclock", checkFixture(t, "wallclock", "mrvd/internal/sim"))
}

func TestGlobalRandGolden(t *testing.T) {
	compareGolden(t, "globalrand", checkFixture(t, "globalrand", "mrvd/internal/workload"))
}

func TestHotLabelGolden(t *testing.T) {
	compareGolden(t, "hotlabel", checkFixture(t, "hotlabel", "mrvd/internal/shard"))
}

// TestGlobalRandExemptInStats pins the analyzer's one exempt package:
// the same fixture checked under mrvd/internal/stats yields no
// globalrand findings.
func TestGlobalRandExemptInStats(t *testing.T) {
	got := checkFixture(t, "globalrand", "mrvd/internal/stats")
	if strings.Contains(got, "globalrand") {
		t.Errorf("globalrand fired inside internal/stats:\n%s", got)
	}
}

// TestScopedPackagesDontFire pins Applies scoping: the maporder and
// wallclock fixtures raise no findings from those analyzers when
// checked under a package outside the determinism-critical set (the
// violations are real, the package is out of scope). The syntactic
// waiver audit still runs — a bare waiver is malformed anywhere — but
// the stale audit must not fire for analyzers that never ran.
func TestScopedPackagesDontFire(t *testing.T) {
	for _, fixture := range []string{"maporder", "wallclock"} {
		got := checkFixture(t, fixture, "mrvd/internal/server")
		if strings.Contains(got, ": "+fixture+":") {
			t.Errorf("%s fired outside the determinism-critical set:\n%s", fixture, got)
		}
		if strings.Contains(got, "stale waiver") {
			t.Errorf("stale-waiver audit fired for an analyzer that never ran:\n%s", got)
		}
	}
}

// TestRepoLintsClean is the self-application gate: the full suite
// over the real module must report zero findings — every violation
// fixed, every deliberate exception carrying a reasoned waiver. If
// this fails, either fix the flagged code or waive it with
// //mrvdlint:ignore <analyzer> <reason>.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	root := moduleRoot(t)
	findings, err := Run(root, []string{"./..."}, Analyzers())
	if err != nil {
		t.Fatalf("lint run failed to load the module: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
