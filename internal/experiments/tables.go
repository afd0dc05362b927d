package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"text/tabwriter"

	"mrvd/internal/core"
	"mrvd/internal/geo"
	"mrvd/internal/predict"
	"mrvd/internal/stats"
	"mrvd/internal/workload"
)

func init() {
	register(Experiment{ID: "table3", Title: "Results of the estimated idle time (MAE, RMSE%, real RMSE) vs fleet size", Run: runTable3})
	register(Experiment{ID: "table4", Title: "Effect of prediction methods on total revenue (IRG/LS/POLAR x HA/LR/GBRT/STNet/Real)", Run: runTable4})
	register(Experiment{ID: "table6", Title: "Accuracy of demand prediction methods (RMSE%, real RMSE)", Run: runTable6})
	register(Experiment{ID: "table7", Title: "Chi-square tests: order counts are Poisson", Run: runTable7})
	register(Experiment{ID: "table8", Title: "Chi-square tests: rejoined-driver counts are Poisson", Run: runTable8})
}

// table3DriverSteps mirrors the paper's 1K-8K sweep.
var table3DriverSteps = []int{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000}

func runTable3(ctx context.Context, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	city := cfg.city(120)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "#Drivers\tMAE (s)\tRMSE (%%)\tReal RMSE (s)\trecords\n")
	for _, paperN := range table3DriverSteps {
		var est, real []float64
		for seed := int64(1); seed <= int64(cfg.Seeds); seed++ {
			runner := core.NewRunner(core.Options{
				City: city, NumDrivers: cfg.Drivers(paperN), Seed: seed,
			})
			m, err := runner.Run(ctx, core.ShardDispatchers("IRG", seed, runner.Options().Shards), core.PredictOracle, nil)
			if err != nil {
				return err
			}
			for _, rec := range m.IdleRecords {
				if math.IsNaN(rec.Estimate) || math.IsInf(rec.Estimate, 0) {
					continue
				}
				est = append(est, rec.Estimate)
				real = append(real, rec.Realized)
			}
		}
		if len(est) == 0 {
			fmt.Fprintf(tw, "%dK\tn/a\tn/a\tn/a\t0\n", paperN/1000)
			continue
		}
		mae, err := stats.MAE(est, real)
		if err != nil {
			return err
		}
		rel, err := stats.RelativeRMSE(est, real)
		if err != nil {
			return err
		}
		rmse, err := stats.RMSE(est, real)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%dK\t%.2f\t%.2f\t%.2f\t%d\n", paperN/1000, mae, rel, rmse, len(est))
	}
	return tw.Flush()
}

// table4Predictors builds the prediction sources of Table 4 in paper
// order; the nil predictor with PredictOracle is the "Real" column.
func table4Predictors(seed int64) []struct {
	label string
	mode  core.PredictionMode
	model predict.Predictor
} {
	return []struct {
		label string
		mode  core.PredictionMode
		model predict.Predictor
	}{
		{"HA", core.PredictModel, predict.HA{}},
		{"LR", core.PredictModel, &predict.LR{}},
		{"GBRT", core.PredictModel, &predict.GBRT{Seed: seed}},
		{"STNet(DeepST)", core.PredictModel, &predict.STNet{}},
		{"Real", core.PredictOracle, nil},
	}
}

func runTable4(ctx context.Context, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	city := cfg.city(120)
	algs := []string{"IRG", "LS", "POLAR"}
	cols := table4Predictors(0)
	// revenue[alg][predictor] accumulated over seeds.
	revenue := make(map[string][]float64)
	for _, a := range algs {
		revenue[a] = make([]float64, len(cols))
	}
	for seed := int64(1); seed <= int64(cfg.Seeds); seed++ {
		// One runner per seed: history and trained predictors are shared
		// across every cell of the table.
		base := core.NewRunner(core.Options{
			City: city, NumDrivers: cfg.Drivers(1000), Seed: seed,
		})
		for ci, col := range table4Predictors(seed) {
			for _, alg := range algs {
				runner := core.NewRunner(base.Options())
				runner.ShareFrom(base)
				m, err := runner.Run(ctx, core.ShardDispatchers(alg, seed, runner.Options().Shards), col.mode, col.model)
				if err != nil {
					return err
				}
				revenue[alg][ci] += m.Revenue / float64(cfg.Seeds)
				base.ShareFrom(runner) // keep newly trained models
			}
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "algorithm")
	for _, c := range cols {
		fmt.Fprintf(tw, "\t%s", c.label)
	}
	fmt.Fprintln(tw)
	for _, a := range algs {
		fmt.Fprintf(tw, "%s", a)
		for ci := range cols {
			fmt.Fprintf(tw, "\t%.4g", revenue[a][ci])
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

func runTable6(ctx context.Context, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	city := cfg.city(120)
	days := predict.MinLookbackDays + 28
	evalDays := 7
	h := predict.GenerateHistory(city, days, 1800, cfg.CitySeed+77)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "model\tRMSE (%%)\tReal RMSE\tMAE\n")
	for _, m := range predict.All(cfg.CitySeed) {
		if err := m.Train(h, days-evalDays); err != nil {
			return fmt.Errorf("train %s: %w", m.Name(), err)
		}
		res, err := predict.Evaluate(m, h, days-evalDays, days)
		if err != nil {
			return fmt.Errorf("evaluate %s: %w", m.Name(), err)
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\n", res.Model, res.RelativeRMSE, res.RealRMSE, res.MAE)
	}
	return tw.Flush()
}

// chiSquareRegions picks the two Appendix B test regions: the busiest
// region (a Manhattan-core analogue) and a mid-traffic one.
func chiSquareRegions(cfg Config) (region1, region2 int) {
	city := cfg.city(120)
	grid := city.Grid()
	best, second := 0, 0
	bestV, secondV := -1.0, -1.0
	for r := 0; r < grid.NumRegions(); r++ {
		v := city.Intensity(0, 8*60, r)
		if v > bestV {
			second, secondV = best, bestV
			best, bestV = r, v
		} else if v > secondV {
			second, secondV = r, v
		}
	}
	_ = secondV
	return best, second
}

// runChiSquareTable runs Appendix B's test protocol: 210 per-minute
// samples (21 weekdays x 10 minutes) per (region, hour) cell.
func runChiSquareTable(cfg Config, w io.Writer, sampler func(city *workload.City, day, startMinute, minutes, region int, rng *rand.Rand) []int) error {
	cfg = cfg.withDefaults()
	// No simulation is involved, so always sample at the paper's full
	// order volume: scaled-down per-minute counts are too sparse to bin.
	cfg.Scale = 1.0
	city := cfg.city(120)
	r1, r2 := chiSquareRegions(cfg)
	rng := rand.New(rand.NewSource(cfg.CitySeed + 5))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "region\ttime slot\tr\tk\tchi2_{r-1}(0.05)\tverdict\n")
	for _, cell := range []struct {
		label  string
		region int
		hour   int
	}{
		{"region 1", r1, 7},
		{"region 1", r1, 8},
		{"region 2", r2, 7},
		{"region 2", r2, 8},
	} {
		var samples []int
		for day := 0; day < 21; day++ {
			// Sample the same clock window across days with the day
			// factor held fixed, as the paper pools 21 working days.
			samples = append(samples, sampler(city, 0, cell.hour*60, 10, cell.region, rng)...)
		}
		res, err := stats.ChiSquarePoissonTest(samples, 0.05)
		if err != nil {
			return err
		}
		verdict := "Poisson plausible"
		if res.Reject {
			verdict = "REJECTED"
		}
		fmt.Fprintf(tw, "%s\t%d:00~%d:10\t%d\t%.4f\t%.3f\t%s\n",
			cell.label, cell.hour, cell.hour, res.Bins, res.Statistic, res.Critical, verdict)
	}
	return tw.Flush()
}

func runTable7(ctx context.Context, cfg Config, w io.Writer) error {
	return runChiSquareTable(cfg, w, func(c *workload.City, day, start, minutes, region int, rng *rand.Rand) []int {
		return c.PerMinuteCounts(day, start, minutes, region, rng)
	})
}

func runTable8(ctx context.Context, cfg Config, w io.Writer) error {
	return runChiSquareTable(cfg, w, func(c *workload.City, day, start, minutes, region int, rng *rand.Rand) []int {
		return c.PerMinuteDropoffCounts(day, start, minutes, region, rng)
	})
}

// regionName renders a region as (row, col) for experiment output.
func regionName(grid *geo.Grid, r geo.RegionID) string {
	row, col := grid.RowCol(r)
	return fmt.Sprintf("r%02dc%02d", row, col)
}
