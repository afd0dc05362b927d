package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// tinyParams keeps smoke tests fast: a 2% -scale city, one instance.
// Two workers even for the presets that print batch times — nothing
// here reads them.
func tinyParams() Params { return Params{Scale: 0.02, Seeds: 1, Workers: 2} }

// paperLines are the row labels of Figures 7-10.
var paperLines = []string{"RAND", "LTG", "NEAR", "POLAR", "IRG-P", "IRG-R", "LS-P", "LS-R"}

// presetTable is every preset the registry must hold — each table and
// figure of the paper's evaluation, the design-choice ablations and the
// matrix reports — with the labels its output must carry. Heavy rows
// simulate full days and are skipped under -short.
var presetTable = []struct {
	id    string
	heavy bool
	want  []string
}{
	{"table3", true, []string{"#Drivers", "1K", "8K"}},
	{"table4", true, []string{"IRG", "LS", "POLAR", "HA", "LR", "GBRT", "STNet(DeepST)", "Real"}},
	{"table6", false, []string{"model", "HA", "STNet"}},
	{"table7", false, []string{"region 1", "region 2"}},
	{"table8", false, []string{"region 1", "region 2"}},
	{"fig5", false, []string{"pickup density"}},
	{"fig6", true, []string{"predicted idle (s)"}},
	{"fig7", true, append([]string{"total revenue (n)", "batch time µs (n)", "5K", "UPPER"}, paperLines...)},
	{"fig8", true, append([]string{"total revenue (Delta)", "30s"}, paperLines...)},
	{"fig9", true, append([]string{"total revenue (t_c)", "100m"}, paperLines...)},
	{"fig10", true, append([]string{"total revenue (tau)", "300s"}, paperLines...)},
	{"fig11", false, []string{"region 1, 7:00 AM", "observed="}},
	{"fig12", false, []string{"region 2, 8:00 AM", "observed="}},
	{"fig13", true, []string{"(a) served orders", "(d) served orders", "served orders (tau)", "SHORT", "POLAR"}},
	{"ablation-reneging", true, []string{"beta", "0.00", "0.20", "idle-estimate MAE"}},
	{"ablation-lsseed", true, []string{"IRG (paper)", "RAND", "NEAR"}},
	{"ablation-coster", true, []string{"manhattan@11m/s (default)", "road-network dijkstra", "avg batch (µs)"}},
	{"ablation-muupdate", true, []string{"mu update on", "mu update off"}},
	{"ablation-reposition", true, []string{"off (paper base)", "queue-guided (extension)"}},
	{"disruptions", true, []string{"# Experiment matrix: disruptions", "| severe |", "IRG vs LS @ none"}},
	{"pooling", true, []string{"# Experiment matrix: pooling", "| cap4 |", "cap2 vs solo"}},
	{"fleets", true, []string{"# Experiment matrix: fleets", "IRG vs LS", "LS vs NEAR"}},
}

func TestRegistryComplete(t *testing.T) {
	var want []string
	for _, row := range presetTable {
		want = append(want, row.id)
		if e, ok := Lookup(row.id); !ok || e.Title == "" {
			t.Errorf("preset %q not registered with a title", row.id)
		}
	}
	sort.Strings(want)
	if got := IDs(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("registry holds %v, want %v", got, want)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("table99"); ok {
		t.Error("unknown experiment found")
	}
}

// smokeOutputs caches each preset's tiny-scale output: the smoke, the
// golden and the content tests read the same deterministic text (and
// none of them runs in parallel).
var smokeOutputs = map[string]string{}

// runSmoke executes one preset at tiny scale and checks it writes a
// non-trivial table.
func runSmoke(t *testing.T, id string) string {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("preset %q missing", id)
	}
	if e.Grids != nil && raceEnabled && !raceSmoke[id] {
		t.Skip("race detector on: the raceSmoke presets stand in for the rest")
	}
	out, ok := smokeOutputs[id]
	if !ok {
		var buf bytes.Buffer
		if _, err := e.Run(context.Background(), tinyParams(), &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out = buf.String()
		smokeOutputs[id] = out
	}
	if len(strings.TrimSpace(out)) == 0 {
		t.Fatalf("%s produced no output", id)
	}
	return out
}

// smokePresets is the one smoke test over presetTable: every preset of
// the wanted weight runs end to end and prints its labels.
func smokePresets(t *testing.T, heavy bool) {
	for _, row := range presetTable {
		if row.heavy != heavy {
			continue
		}
		t.Run(row.id, func(t *testing.T) {
			out := runSmoke(t, row.id)
			for _, label := range row.want {
				if !strings.Contains(out, label) {
					t.Errorf("%s output lacks %q:\n%s", row.id, label, out)
				}
			}
		})
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// raceSmoke are the heavy presets that still run under the race
// detector, where a simulated day costs ~10x and the whole table would
// not fit the test timeout: series × layers with trained forecasts,
// fleets with idle ledgers, dispatcher factories, layered costers. The
// sweep's own concurrency is raced in internal/core and matrix.
var raceSmoke = map[string]bool{
	"fig8": true, "table3": true, "fig6": true,
	"ablation-lsseed": true, "ablation-coster": true, "ablation-muupdate": true,
}

func TestLightExperimentsSmoke(t *testing.T) { smokePresets(t, false) }

func TestHeavyExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment smoke in -short mode")
	}
	smokePresets(t, true)
}

func TestTable7PoissonVerdicts(t *testing.T) {
	out := runSmoke(t, "table7")
	if strings.Count(out, "Poisson plausible") < 3 {
		t.Errorf("order counts mostly rejected as Poisson:\n%s", out)
	}
}

func TestFig5ShowsConcentration(t *testing.T) {
	out := runSmoke(t, "fig5")
	// The density map must contain both empty and saturated cells.
	if !strings.Contains(out, "@") {
		t.Errorf("no saturated region in density map:\n%s", out)
	}
	if !strings.Contains(out, "  ") {
		t.Errorf("no empty region in density map:\n%s", out)
	}
}

var (
	avgBatchColumn = regexp.MustCompile(`\s+avg batch \(.*\)$`)
	lastColumn     = regexp.MustCompile(`\s+\S+$`)
)

// stripWallClock removes what legitimately differs between two runs of
// a preset: every "batch time" table (with the blank line above it) and
// the trailing "avg batch" column.
func stripWallClock(text string) string {
	var out []string
	lines := strings.Split(text, "\n")
	inAvgTable := false
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		switch {
		case strings.HasPrefix(l, "batch time"):
			if n := len(out); n > 0 && out[n-1] == "" {
				out = out[:n-1]
			}
			for i+1 < len(lines) && lines[i+1] != "" {
				i++
			}
			continue
		case avgBatchColumn.MatchString(l):
			inAvgTable = true
			l = avgBatchColumn.ReplaceAllString(l, "")
		case l == "":
			inAvgTable = false
		case inAvgTable:
			l = lastColumn.ReplaceAllString(l, "")
		}
		out = append(out, l)
	}
	return strings.TrimRight(strings.Join(out, "\n"), "\n") + "\n"
}

// TestGoldenParity is the licence the grid harness was built under: the
// goldens are the text the pre-harness regenerators (one hand-rolled
// seed loop each) printed at this scale, wall-clock columns stripped.
// fig8 covers series × Delta layers with trained and oracle forecasts,
// table4 series × forecast source, table3 idle ledgers × fleets, and
// ablation-lsseed concrete dispatcher factories.
func TestGoldenParity(t *testing.T) {
	if testing.Short() {
		t.Skip("golden parity runs full simulated days")
	}
	goldens, err := filepath.Glob("testdata/*.golden")
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no goldens: %v", err)
	}
	for _, path := range goldens {
		id := strings.TrimSuffix(filepath.Base(path), ".golden")
		t.Run(id, func(t *testing.T) {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := stripWallClock(runSmoke(t, id)); got != string(want) {
				t.Errorf("%s diverged from the pre-harness output\n--- got\n%s--- want\n%s", id, got, want)
			}
		})
	}
}

func TestStripWallClock(t *testing.T) {
	in := "metric (n)  1K\nIRG  5\n\nbatch time µs (n)  1K\nIRG  0.3\n\n(b) next\ncoster  served  avg batch (µs)\nroad dijkstra  42  17.5\n"
	want := "metric (n)  1K\nIRG  5\n\n(b) next\ncoster  served\nroad dijkstra  42\n"
	if got := stripWallClock(in); got != want {
		t.Errorf("stripWallClock:\n%q\nwant\n%q", got, want)
	}
}

func TestConfigScaling(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Scale != 0.05 || p.Seeds != 5 {
		t.Errorf("defaults: %+v", p)
	}
	if got := p.orders(); got != 14113 {
		t.Errorf("orders() = %d", got)
	}
	if got := p.drivers(1000); got != 50 {
		t.Errorf("drivers(1000) = %d", got)
	}
	small := Params{Scale: 0.0001}.withDefaults()
	if small.drivers(1000) < 1 {
		t.Error("driver count must never reach zero")
	}
	if got := small.fleets(1000, 2000, 3000); len(got) != 1 || got[0] != 1 {
		t.Errorf("collapsed fleets = %v, want one fleet of 1", got)
	}
	if p.timedWorkers() != 1 || (Params{Workers: 4}).timedWorkers() != 4 {
		t.Error("timed presets default to one worker and honour an explicit count")
	}
}
