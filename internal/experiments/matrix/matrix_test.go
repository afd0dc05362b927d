package matrix

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"mrvd/internal/core"
	"mrvd/internal/geo"
	"mrvd/internal/sim"
	"mrvd/internal/workload"
)

// testConfig is a small, fast matrix: a 4x4-grid city with a short
// horizon, two cheap algorithms, a clean and a disrupted layer.
func testConfig(workers int) Config {
	return Config{
		Name: "test",
		Base: core.Options{
			City: workload.NewCity(workload.CityConfig{
				Grid:         geo.NewGrid(geo.NYCBBox, 4, 4),
				OrdersPerDay: 3000,
				Seed:         9,
			}),
			NumDrivers: 15,
			Delta:      10,
			Horizon:    2 * 3600,
		},
		Algorithms: []string{"NEAR", "RAND"},
		Scenarios: []Scenario{
			{Name: "none"},
			{Name: "shaky", Scenario: sim.ScenarioConfig{
				CancelRate: 0.2, DeclineProb: 0.1, TravelNoise: 0.15, Seed: 77,
			}},
		},
		Seeds:   []int64{1, 2, 3},
		Workers: workers,
		Mode:    core.PredictOracle,
	}
}

func runMatrix(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMatrixGridShape(t *testing.T) {
	res := runMatrix(t, testConfig(0))
	if len(res.Cells) != 2*2 { // 2 algorithms × 2 scenarios × 1 fleet
		t.Fatalf("cells = %d, want 4", len(res.Cells))
	}
	// Grid order: scenarios outermost, then fleets, then algorithms.
	wantOrder := []CellKey{
		{"NEAR", "none", 15}, {"RAND", "none", 15},
		{"NEAR", "shaky", 15}, {"RAND", "shaky", 15},
	}
	for i, c := range res.Cells {
		if c.CellKey != wantOrder[i] {
			t.Errorf("cell %d = %v, want %v", i, c.CellKey, wantOrder[i])
		}
		if len(c.Trials) != 3 {
			t.Errorf("cell %v has %d trials, want 3", c.CellKey, len(c.Trials))
		}
		if c.Stats.ServeRate.N != 3 || c.Stats.ServeRate.Mean <= 0 {
			t.Errorf("cell %v serve-rate aggregate %+v", c.CellKey, c.Stats.ServeRate)
		}
		for j, tr := range c.Trials {
			if tr.Seed != res.Seeds[j] {
				t.Errorf("cell %v trial %d seed %d, want %d", c.CellKey, j, tr.Seed, res.Seeds[j])
			}
			if tr.Summary.TotalOrders == 0 {
				t.Errorf("cell %v trial %d empty summary", c.CellKey, j)
			}
		}
	}
	// Default comparisons: one per (scenario, fleet) algorithm pair.
	if len(res.Comparisons) != 2 {
		t.Fatalf("comparisons = %d, want 2", len(res.Comparisons))
	}
	for _, cmp := range res.Comparisons {
		if len(cmp.Metrics) != 2 {
			t.Errorf("comparison %q has %d metrics, want serve_rate+revenue", cmp.Label, len(cmp.Metrics))
		}
		for _, m := range cmp.Metrics {
			if n := m.Paired.Wins + m.Paired.Losses + m.Paired.Ties; n != 3 {
				t.Errorf("comparison %q %s pairs %d seeds, want 3", cmp.Label, m.Metric, n)
			}
			if m.Paired.SignP <= 0 || m.Paired.SignP > 1 {
				t.Errorf("comparison %q %s sign p = %v", cmp.Label, m.Metric, m.Paired.SignP)
			}
		}
	}
}

// TestMatrixDisruptionsBite: the disrupted layer must actually record
// cancellations, declines, and travel-error samples, and its serve
// rate must not exceed the clean layer's (riders that cancel are gone).
func TestMatrixDisruptionsBite(t *testing.T) {
	res := runMatrix(t, testConfig(0))
	clean := res.Cell(CellKey{"NEAR", "none", 15})
	shaky := res.Cell(CellKey{"NEAR", "shaky", 15})
	if clean == nil || shaky == nil {
		t.Fatal("cells missing")
	}
	if shaky.Stats.Canceled.Mean <= 0 || shaky.Stats.Declines.Mean <= 0 || shaky.Stats.TravelAbsErrSecs.Mean <= 0 {
		t.Errorf("disrupted layer inert: %+v", shaky.Stats)
	}
	if clean.Stats.Canceled.Max != 0 || clean.Stats.Declines.Max != 0 {
		t.Errorf("clean layer disrupted: %+v", clean.Stats)
	}
	if shaky.Stats.ServeRate.Mean > clean.Stats.ServeRate.Mean {
		t.Errorf("serve rate rose under disruption: %.4f > %.4f",
			shaky.Stats.ServeRate.Mean, clean.Stats.ServeRate.Mean)
	}
}

// TestMatrixDeterminism: the same config run twice — and at different
// worker counts — yields deeply equal TrialResults and byte-identical
// markdown, CSV, and JSON reports. This is the property that makes
// EXP_*.json a regression baseline rather than a snapshot.
func TestMatrixDeterminism(t *testing.T) {
	render := func(res *Result) (md, csv, js []byte) {
		var m, c, j bytes.Buffer
		if err := res.Markdown(&m); err != nil {
			t.Fatal(err)
		}
		if err := res.CSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := res.JSON(&j); err != nil {
			t.Fatal(err)
		}
		return m.Bytes(), c.Bytes(), j.Bytes()
	}
	seq := runMatrix(t, testConfig(1))
	again := runMatrix(t, testConfig(1))
	par := runMatrix(t, testConfig(4))

	if !reflect.DeepEqual(seq, again) {
		t.Error("rerun diverged from first run")
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("parallel run diverged from sequential run")
	}
	m1, c1, j1 := render(seq)
	m2, c2, j2 := render(par)
	if !bytes.Equal(m1, m2) {
		t.Error("markdown reports differ across worker counts")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("CSV reports differ across worker counts")
	}
	if !bytes.Equal(j1, j2) {
		t.Error("JSON reports differ across worker counts")
	}
}

// TestReportRoundTrip: the JSON report parses back through ReadReport
// into an equal Result.
func TestReportRoundTrip(t *testing.T) {
	res := runMatrix(t, testConfig(0))
	var buf bytes.Buffer
	if err := res.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Error("report did not round-trip")
	}
	if _, err := ReadReport(bytes.NewReader([]byte(`{"name":"x","cells":[]}`))); err == nil {
		t.Error("empty report should fail validation")
	}
	if _, err := ReadReport(bytes.NewReader([]byte(`not json`))); err == nil {
		t.Error("malformed report should fail validation")
	}
}

// TestMatrixSeriesAndOverlays: rows can be labelled series with their
// own forecast source next to the plain algorithms, a layer can overlay
// any option, and KeepMetrics retains each trial's full metrics.
func TestMatrixSeriesAndOverlays(t *testing.T) {
	cfg := testConfig(0)
	cfg.Algorithms = []string{"NEAR"}
	cfg.Series = []core.SweepSeries{
		{Label: "IRG-R", Algorithm: "IRG", Mode: core.PredictOracle},
		{Label: "IRG-0", Algorithm: "IRG"},
	}
	cfg.Scenarios = []Scenario{
		{Name: "d10"},
		{Name: "d30", Apply: func(o *core.Options) { o.Delta = 30 }},
	}
	cfg.KeepMetrics = true
	res := runMatrix(t, cfg)
	if !reflect.DeepEqual(res.Algorithms, []string{"NEAR", "IRG-R", "IRG-0"}) || len(res.Cells) != 6 {
		t.Fatalf("rows %v, %d cells", res.Algorithms, len(res.Cells))
	}
	if len(res.Comparisons) != 2*3 {
		t.Errorf("%d default comparisons, want every pair of rows per layer", len(res.Comparisons))
	}
	for _, c := range res.Cells {
		wantBatches := 2 * 3600 / 10
		if c.Scenario == "d30" {
			wantBatches = 2 * 3600 / 30
		}
		for _, tr := range c.Trials {
			if tr.Summary.Batches != wantBatches {
				t.Errorf("cell %v ran %d batches, want %d", c.CellKey, tr.Summary.Batches, wantBatches)
			}
			if tr.Metrics == nil || tr.Metrics.Summary() != tr.Summary ||
				tr.Metrics.Batches != wantBatches || tr.Metrics.DispatchPhase.Count != int64(wantBatches) {
				t.Errorf("cell %v trial %d lost its metrics", c.CellKey, tr.Seed)
			}
		}
	}
	cfg.Series[1].Label = "IRG-R"
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("duplicate series labels should error")
	}
}

func TestMatrixConfigValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{}); err == nil {
		t.Error("no algorithms should error")
	}
	bad := testConfig(1)
	bad.Scenarios = []Scenario{{Name: "dup"}, {Name: "dup"}}
	if _, err := Run(ctx, bad); err == nil {
		t.Error("duplicate scenario names should error")
	}
	unnamed := testConfig(1)
	unnamed.Scenarios = []Scenario{{}}
	if _, err := Run(ctx, unnamed); err == nil {
		t.Error("empty scenario name should error")
	}
	missing := testConfig(1)
	missing.Comparisons = []Comparison{{Label: "ghost", A: CellKey{"IRG", "none", 15}, B: CellKey{"NEAR", "none", 15}}}
	if _, err := Run(ctx, missing); err == nil {
		t.Error("comparison against a cell outside the grid should error")
	}
	alg := testConfig(1)
	alg.Algorithms = []string{"NOPE"}
	if _, err := Run(ctx, alg); err == nil {
		t.Error("unknown algorithm should error")
	}
}
