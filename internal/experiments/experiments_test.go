package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// tinyConfig keeps smoke tests fast: a 2% -scale city, one instance.
func tinyConfig() Config { return Config{Scale: 0.02, Seeds: 1} }

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must have a
	// registered regenerator, plus the design-choice ablations.
	want := []string{
		"table3", "table4", "table6", "table7", "table8",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"ablation-reneging", "ablation-lsseed", "ablation-coster", "ablation-muupdate",
		"ablation-reposition",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if got := len(IDs()); got != len(want) {
		t.Errorf("registry holds %d experiments, want %d: %v", got, len(want), IDs())
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("table99"); ok {
		t.Error("unknown experiment found")
	}
}

// runSmoke executes one experiment at tiny scale and checks it writes a
// non-trivial table.
func runSmoke(t *testing.T, id string) string {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q missing", id)
	}
	var buf bytes.Buffer
	if err := e.Run(context.Background(), tinyConfig(), &buf); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := buf.String()
	if len(strings.TrimSpace(out)) == 0 {
		t.Fatalf("%s produced no output", id)
	}
	return out
}

func TestLightExperimentsSmoke(t *testing.T) {
	for _, id := range []string{"table6", "table7", "table8", "fig5", "fig11", "fig12"} {
		t.Run(id, func(t *testing.T) {
			out := runSmoke(t, id)
			t.Logf("%s:\n%s", id, out)
		})
	}
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

func TestHeavyExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment smoke in -short mode")
	}
	for _, id := range []string{"table3", "fig6", "ablation-muupdate", "ablation-coster"} {
		t.Run(id, func(t *testing.T) {
			out := runSmoke(t, id)
			t.Logf("%s:\n%s", id, out)
		})
	}
}

func TestSweepExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep smoke in -short mode")
	}
	// fig8 exercises the shared sweep machinery (history reuse across
	// series and values) with the fewest heavy runs.
	out := runSmoke(t, "fig8")
	for _, label := range []string{"RAND", "LTG", "NEAR", "POLAR", "IRG-P", "IRG-R", "LS-P", "LS-R"} {
		if !strings.Contains(out, label) {
			t.Errorf("series %s missing from fig8 output:\n%s", label, out)
		}
	}
}

func TestConfigScaling(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Scale != 0.25 || cfg.Seeds != 3 {
		t.Errorf("defaults: %+v", cfg)
	}
	if got := cfg.Orders(); got != 70564 {
		t.Errorf("Orders() = %d", got)
	}
	if got := cfg.Drivers(1000); got != 250 {
		t.Errorf("Drivers(1000) = %d", got)
	}
	small := Config{Scale: 0.0001}.withDefaults()
	if small.Drivers(1000) < 1 {
		t.Error("driver count must never reach zero")
	}
}
