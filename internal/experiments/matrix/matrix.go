// Package matrix runs experiment matrices: a (series × layer × fleet ×
// seed) grid of full dispatch simulations, aggregated into per-cell
// trial statistics (mean ± Student-t CI, min/max/median via
// internal/stats.Estimator) and seed-for-seed paired comparisons
// (paired mean difference with CI plus an exact sign test). It is the
// reproduction's answer to the paper's "every data point is averaged
// over 10 problem instances" methodology, extended with the
// uncertainty the paper leaves implicit. A series is a labelled
// dispatcher with its own forecast source; a layer is any overlay of
// the base options — the disruption knobs, pooling, the batch
// interval, a different city or coster.
//
// The whole grid is one core.Sweep call, which owns instances,
// history/predictor sharing and the worker pool; this package only
// describes grids and aggregates their per-trial records. Results are
// deterministic: the same Config produces byte-identical reports at
// any worker count.
package matrix

import (
	"context"
	"fmt"

	"mrvd/internal/core"
	"mrvd/internal/geo"
	"mrvd/internal/pool"
	"mrvd/internal/predict"
	"mrvd/internal/sim"
	"mrvd/internal/stats"
	"mrvd/internal/trace"
)

// Scenario is one layer of the matrix: a named overlay of the base
// options applied to every (series, fleet, seed) cell in the layer —
// the disruption knobs, the pooling config, and through Apply anything
// else core.Options holds. The zero-valued layers ("no disruptions, no
// pooling") are valid and are how baselines enter the same report as
// the stressed cells.
type Scenario struct {
	Name     string
	Scenario sim.ScenarioConfig
	Pooling  pool.Config
	// Apply optionally edits the layer's options further (batch
	// interval, window, city, coster, repositioner...); see
	// core.SweepLayer.Apply.
	Apply func(*core.Options)
}

// CellKey identifies one aggregated cell of the matrix.
type CellKey struct {
	Algorithm string `json:"algorithm"`
	Scenario  string `json:"scenario"`
	Fleet     int    `json:"fleet"`
}

func (k CellKey) String() string {
	return fmt.Sprintf("%s/%s/fleet=%d", k.Algorithm, k.Scenario, k.Fleet)
}

// Config describes a matrix run.
type Config struct {
	// Name labels the matrix in reports ("disruptions").
	Name string
	// Base provides the shared problem setting (city, batch interval,
	// coster...). Seed, NumDrivers, Scenario and Pooling are overwritten
	// per cell from the grid axes.
	Base core.Options
	// Algorithms are dispatcher names accepted by core.NewDispatcher,
	// forecasting from Mode and Model.
	Algorithms []string
	// Series are further rows after the Algorithms, each with its own
	// label, dispatcher and forecast source (core.SweepSeries). A cell's
	// CellKey.Algorithm is its series label.
	Series []core.SweepSeries
	// Scenarios are the layers; empty defaults to a single zero-valued
	// "base" layer.
	Scenarios []Scenario
	// Fleets are driver counts; empty defaults to the base fleet.
	Fleets []int
	// Seeds are problem-instance seeds; empty defaults to 1..3. Every
	// cell runs every seed, which is what makes comparisons pairable.
	Seeds []int64
	// Workers bounds parallel cell execution (0 = GOMAXPROCS). Reports
	// are byte-identical at any worker count.
	Workers int
	// Mode and Model select the Algorithms' demand-forecast source, as
	// in core.SweepSpec (Model instances are trained once per seed and
	// shared across that seed's cells).
	Mode  core.PredictionMode
	Model func() predict.Predictor
	// KeepMetrics retains every trial's full *sim.Metrics (the idle and
	// travel ledgers, megabytes per trial on a paper-scale day) for
	// renderers that need more than the Summary.
	KeepMetrics bool
	// Comparisons lists the paired cell comparisons to compute; empty
	// defaults to every unordered algorithm pair within each
	// (scenario, fleet). Explicit entries may compare across scenarios
	// (pooled-vs-solo) or fleets instead.
	Comparisons []Comparison
	// Orders, when set, replays this fixed trace for every cell instead
	// of generating a day from the city (core.SweepSpec.Orders); Starts
	// optionally pins fleet start positions.
	Orders []trace.Order
	Starts []geo.Point
}

// Comparison names two cells to compare seed-for-seed.
type Comparison struct {
	Label string  `json:"label"`
	A     CellKey `json:"a"`
	B     CellKey `json:"b"`
}

// labels lists the row labels: the Algorithms, then each series' label.
func (c Config) labels() []string {
	out := append([]string(nil), c.Algorithms...)
	for _, s := range c.Series {
		if s.Label == "" {
			s.Label = s.Algorithm
		}
		out = append(out, s.Label)
	}
	return out
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "matrix"
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = []Scenario{{Name: "base"}}
	}
	if len(c.Fleets) == 0 {
		c.Fleets = []int{c.Base.WithDefaults().NumDrivers}
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3}
	}
	if len(c.Comparisons) == 0 {
		labels := c.labels()
		for _, sc := range c.Scenarios {
			for _, fleet := range c.Fleets {
				for i := 0; i < len(labels); i++ {
					for j := i + 1; j < len(labels); j++ {
						a := CellKey{labels[i], sc.Name, fleet}
						b := CellKey{labels[j], sc.Name, fleet}
						c.Comparisons = append(c.Comparisons, Comparison{
							Label: fmt.Sprintf("%s vs %s @ %s/fleet=%d", a.Algorithm, b.Algorithm, sc.Name, fleet),
							A:     a, B: b,
						})
					}
				}
			}
		}
	}
	return c
}

// TrialResult is one completed (cell, seed) simulation: the run's
// deterministic Summary projection. Two executions of the same config
// produce identical TrialResults in identical order (Metrics, only set
// under Config.KeepMetrics, carries wall-clock fields and stays out of
// the reports).
type TrialResult struct {
	CellKey
	Seed    int64        `json:"seed"`
	Summary sim.Summary  `json:"summary"`
	Metrics *sim.Metrics `json:"-"`
}

// Trial-level derived metrics.

// ServeRate is the fraction of the trace served.
func (t TrialResult) ServeRate() float64 {
	if t.Summary.TotalOrders == 0 {
		return 0
	}
	return float64(t.Summary.Served) / float64(t.Summary.TotalOrders)
}

// MeanWaitSeconds is the mean assignment-to-pickup wait of served
// riders (driver deadhead travel per served order).
func (t TrialResult) MeanWaitSeconds() float64 {
	if t.Summary.Served == 0 {
		return 0
	}
	return t.Summary.PickupSeconds / float64(t.Summary.Served)
}

// SharedRate is the fraction of served riders whose trip was pooled.
func (t TrialResult) SharedRate() float64 {
	if t.Summary.Served == 0 {
		return 0
	}
	return float64(t.Summary.SharedServed) / float64(t.Summary.Served)
}

// MeanDetourSeconds is the mean realized detour per completed shared
// trip (0 when none).
func (t TrialResult) MeanDetourSeconds() float64 {
	if t.Summary.SharedServed == 0 {
		return 0
	}
	return t.Summary.DetourSeconds / float64(t.Summary.SharedServed)
}

// Aggregate summarizes one metric over a cell's trials: the mean with
// its Student-t confidence half-width, plus the nearest-rank median
// and the extremes.
type Aggregate struct {
	Mean   float64 `json:"mean"`
	Half   float64 `json:"half"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// confidence is the two-sided CI level for cell aggregates and paired
// comparisons.
const confidence = 0.95

func aggregate(xs []float64) Aggregate {
	var e stats.Estimator
	e.AddAll(xs)
	iv := e.MeanCI(confidence)
	return Aggregate{
		Mean: iv.Mean, Half: iv.Half,
		Median: e.Quantile(0.5), Min: e.Min(), Max: e.Max(), N: e.Count(),
	}
}

// CellStats are the per-cell aggregates reported for every metric the
// matrix tracks. Pooling metrics stay zero for unpooled cells; the
// travel-error aggregate stays zero without travel noise.
type CellStats struct {
	ServeRate         Aggregate `json:"serve_rate"`
	Revenue           Aggregate `json:"revenue"`
	MeanWaitSeconds   Aggregate `json:"mean_wait_seconds"`
	Canceled          Aggregate `json:"canceled"`
	Declines          Aggregate `json:"declines"`
	TravelAbsErrSecs  Aggregate `json:"travel_abs_err_seconds"`
	SharedRate        Aggregate `json:"shared_rate"`
	MeanDetourSeconds Aggregate `json:"mean_detour_seconds"`
}

// CellResult is one aggregated matrix cell with its per-seed trials.
type CellResult struct {
	CellKey
	Trials []TrialResult `json:"trials"`
	Stats  CellStats     `json:"stats"`
}

// MetricComparison is one metric's seed-paired comparison between two
// cells: mean difference A-B with CI, per-seed win/loss/tie record,
// and the exact sign-test p-value.
type MetricComparison struct {
	Metric string       `json:"metric"`
	Paired stats.Paired `json:"paired"`
}

// ComparisonResult is a resolved Comparison: its per-metric paired
// statistics, seed-aligned across the two cells.
type ComparisonResult struct {
	Comparison
	Metrics []MetricComparison `json:"metrics"`
}

// Result is a completed matrix: the cell aggregates in deterministic
// grid order (scenarios outermost, then fleets, then algorithms) and
// the paired comparisons. It is the schema of the EXP_*.json reports.
type Result struct {
	Name        string             `json:"name"`
	Confidence  float64            `json:"confidence"`
	Algorithms  []string           `json:"algorithms"`
	Scenarios   []string           `json:"scenarios"`
	Fleets      []int              `json:"fleets"`
	Seeds       []int64            `json:"seeds"`
	Cells       []CellResult       `json:"cells"`
	Comparisons []ComparisonResult `json:"comparisons"`
}

// Cell returns the aggregated cell for a key, or nil.
func (r *Result) Cell(k CellKey) *CellResult {
	for i := range r.Cells {
		if r.Cells[i].CellKey == k {
			return &r.Cells[i]
		}
	}
	return nil
}

// Run executes the matrix as one core.Sweep over (layer × seed × fleet ×
// series), so problem instances are shared across series, histories and
// trained predictors across layers, and cells run in parallel. Any
// failed cell fails the whole matrix — a partially filled grid cannot be
// paired.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	labels := cfg.labels()
	if len(labels) == 0 {
		return nil, fmt.Errorf("matrix: config needs at least one algorithm")
	}
	seen := map[string]bool{}
	for _, l := range labels {
		if seen[l] {
			return nil, fmt.Errorf("matrix: duplicate series %q", l)
		}
		seen[l] = true
	}
	seen = map[string]bool{}
	layers := make([]core.SweepLayer, len(cfg.Scenarios))
	for i, sc := range cfg.Scenarios {
		if sc.Name == "" {
			return nil, fmt.Errorf("matrix: scenario with empty name")
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("matrix: duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
		layers[i] = core.SweepLayer{Name: sc.Name, Apply: func(o *core.Options) {
			o.Scenario = sc.Scenario
			o.Pooling = sc.Pooling
			if sc.Apply != nil {
				sc.Apply(o)
			}
		}}
	}

	results, err := core.Sweep(ctx, cfg.Base, core.SweepSpec{
		Algorithms: cfg.Algorithms,
		Series:     cfg.Series,
		Layers:     layers,
		Seeds:      cfg.Seeds,
		Fleets:     cfg.Fleets,
		Workers:    cfg.Workers,
		Mode:       cfg.Mode,
		Model:      cfg.Model,
		Orders:     cfg.Orders,
		Starts:     cfg.Starts,
	})
	if err != nil {
		return nil, fmt.Errorf("matrix: %w", err)
	}
	type trialKey struct {
		CellKey
		seed int64
	}
	trials := make(map[trialKey]*sim.Metrics, len(results))
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("matrix: cell %s/%s fleet=%d seed=%d: %w",
				r.Algorithm, r.Layer, r.Fleet, r.Seed, r.Err)
		}
		trials[trialKey{CellKey{r.Algorithm, r.Layer, r.Fleet}, r.Seed}] = r.Metrics
	}

	res := &Result{
		Name:       cfg.Name,
		Confidence: confidence,
		Algorithms: labels,
		Fleets:     cfg.Fleets,
		Seeds:      cfg.Seeds,
	}
	for _, sc := range cfg.Scenarios {
		res.Scenarios = append(res.Scenarios, sc.Name)
	}
	for _, sc := range cfg.Scenarios {
		for _, fleet := range cfg.Fleets {
			for _, label := range labels {
				cell := CellResult{CellKey: CellKey{label, sc.Name, fleet}}
				for _, seed := range cfg.Seeds {
					m, ok := trials[trialKey{cell.CellKey, seed}]
					if !ok {
						return nil, fmt.Errorf("matrix: missing trial %s seed=%d", cell.CellKey, seed)
					}
					t := TrialResult{CellKey: cell.CellKey, Seed: seed, Summary: m.Summary()}
					if cfg.KeepMetrics {
						t.Metrics = m
					}
					cell.Trials = append(cell.Trials, t)
				}
				cell.Stats = aggregateCell(cell.Trials)
				res.Cells = append(res.Cells, cell)
			}
		}
	}

	for _, cmp := range cfg.Comparisons {
		a, b := res.Cell(cmp.A), res.Cell(cmp.B)
		if a == nil || b == nil {
			return nil, fmt.Errorf("matrix: comparison %q references missing cell (%s vs %s)", cmp.Label, cmp.A, cmp.B)
		}
		cr := ComparisonResult{Comparison: cmp}
		for _, m := range comparedMetrics {
			av := make([]float64, len(a.Trials))
			bv := make([]float64, len(b.Trials))
			for i := range a.Trials {
				av[i] = m.get(a.Trials[i])
				bv[i] = m.get(b.Trials[i])
			}
			p, err := stats.PairedCompare(av, bv, confidence)
			if err != nil {
				return nil, fmt.Errorf("matrix: comparison %q: %w", cmp.Label, err)
			}
			cr.Metrics = append(cr.Metrics, MetricComparison{Metric: m.name, Paired: p})
		}
		res.Comparisons = append(res.Comparisons, cr)
	}
	return res, nil
}

// comparedMetrics are the trial metrics every paired comparison
// reports on.
var comparedMetrics = []struct {
	name string
	get  func(TrialResult) float64
}{
	{"serve_rate", TrialResult.ServeRate},
	{"revenue", func(t TrialResult) float64 { return t.Summary.Revenue }},
}

func aggregateCell(trials []TrialResult) CellStats {
	col := func(get func(TrialResult) float64) Aggregate {
		xs := make([]float64, len(trials))
		for i, t := range trials {
			xs[i] = get(t)
		}
		return aggregate(xs)
	}
	return CellStats{
		ServeRate:       col(TrialResult.ServeRate),
		Revenue:         col(func(t TrialResult) float64 { return t.Summary.Revenue }),
		MeanWaitSeconds: col(TrialResult.MeanWaitSeconds),
		Canceled:        col(func(t TrialResult) float64 { return float64(t.Summary.Canceled) }),
		Declines:        col(func(t TrialResult) float64 { return float64(t.Summary.Declines) }),
		TravelAbsErrSecs: col(func(t TrialResult) float64 {
			return t.Summary.MeanAbsTravelErrorSeconds()
		}),
		SharedRate:        col(TrialResult.SharedRate),
		MeanDetourSeconds: col(TrialResult.MeanDetourSeconds),
	}
}
