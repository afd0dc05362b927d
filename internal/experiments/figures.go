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
	"mrvd/internal/sim"
	"mrvd/internal/stats"
	"mrvd/internal/workload"
)

func init() {
	register(Experiment{ID: "fig5", Title: "Spatial distribution of pickups, 8:00-8:45 AM (ASCII density)", Run: runFig5})
	register(Experiment{ID: "fig6", Title: "Predicted vs real idle time per region", Run: runFig6})
	register(Experiment{ID: "fig7", Title: "Effect of the number of drivers n (total revenue, batch time)", Run: runFig7})
	register(Experiment{ID: "fig8", Title: "Effect of the batch interval Delta (total revenue, batch time)", Run: runFig8})
	register(Experiment{ID: "fig9", Title: "Effect of the time window t_c (total revenue, batch time)", Run: runFig9})
	register(Experiment{ID: "fig10", Title: "Effect of the base waiting time tau (total revenue, batch time)", Run: runFig10})
	register(Experiment{ID: "fig11", Title: "Observed vs expected order-count histogram (chi-square data)", Run: runFig11})
	register(Experiment{ID: "fig12", Title: "Observed vs expected driver-count histogram (chi-square data)", Run: runFig12})
	register(Experiment{ID: "fig13", Title: "Total served orders: SHORT vs RAND/NEAR/POLAR across n, t_c, Delta, tau", Run: runFig13})
}

// series is one plotted line of Figures 7-10.
type series struct {
	label string
	alg   string
	mode  core.PredictionMode
	model func(seed int64) predict.Predictor // nil unless mode == PredictModel
}

// paperSeries returns the paper's plotted lines in legend order. The -P
// variants use STNet (the DeepST substitute); -R uses real demand.
func paperSeries(includeUpper bool) []series {
	stnet := func(int64) predict.Predictor { return &predict.STNet{} }
	s := []series{
		{label: "RAND", alg: "RAND", mode: core.PredictNone},
		{label: "LTG", alg: "LTG", mode: core.PredictNone},
		{label: "NEAR", alg: "NEAR", mode: core.PredictNone},
		{label: "POLAR", alg: "POLAR", mode: core.PredictModel, model: stnet},
		{label: "IRG-P", alg: "IRG", mode: core.PredictModel, model: stnet},
		{label: "IRG-R", alg: "IRG", mode: core.PredictOracle},
		{label: "LS-P", alg: "LS", mode: core.PredictModel, model: stnet},
		{label: "LS-R", alg: "LS", mode: core.PredictOracle},
	}
	if includeUpper {
		s = append(s, series{label: "UPPER", alg: "UPPER", mode: core.PredictNone})
	}
	return s
}

// sweep runs a set of series over parameter values, printing one revenue
// table and one batch-time table with a column per value. makeOpts must
// produce fully-specified options for (value, seed); runners sharing a
// city and seed share history and trained predictors.
func sweep(ctx context.Context, cfg Config, w io.Writer, paramName string, values []string, makeOpts func(vi int, seed int64) core.Options, ss []series, metric func(*sim.Metrics) float64, metricName string) error {
	cfg = cfg.withDefaults()
	results := make([][]float64, len(ss)) // [series][value]
	batch := make([][]float64, len(ss))
	for i := range ss {
		results[i] = make([]float64, len(values))
		batch[i] = make([]float64, len(values))
	}
	type hkey struct {
		city *workload.City
		seed int64
	}
	hcache := map[hkey]*core.Runner{}
	for vi := range values {
		for seed := int64(1); seed <= int64(cfg.Seeds); seed++ {
			opts := makeOpts(vi, seed)
			base, ok := hcache[hkey{opts.City, seed}]
			for si, s := range ss {
				runner := core.NewRunner(opts)
				if ok {
					runner.ShareFrom(base)
				}
				var model predict.Predictor
				if s.model != nil {
					model = s.model(seed)
				}
				m, err := runner.Run(ctx, core.ShardDispatchers(s.alg, seed, runner.Options().Shards), s.mode, model)
				if err != nil {
					return fmt.Errorf("%s %s=%s seed %d: %w", s.label, paramName, values[vi], seed, err)
				}
				results[si][vi] += metric(m) / float64(cfg.Seeds)
				batch[si][vi] += m.AvgBatchSeconds() / float64(cfg.Seeds)
				// Keep the history/trained models for subsequent series
				// and values with the same city+seed.
				if !ok {
					base = runner
					hcache[hkey{opts.City, seed}] = base
					ok = true
				} else {
					base.ShareFrom(runner)
				}
			}
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s (%s)", metricName, paramName)
	for _, v := range values {
		fmt.Fprintf(tw, "\t%s", v)
	}
	fmt.Fprintln(tw)
	for si, s := range ss {
		fmt.Fprintf(tw, "%s", s.label)
		for vi := range values {
			fmt.Fprintf(tw, "\t%.4g", results[si][vi])
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintln(tw)
	fmt.Fprintf(tw, "batch time ms (%s)", paramName)
	for _, v := range values {
		fmt.Fprintf(tw, "\t%s", v)
	}
	fmt.Fprintln(tw)
	for si, s := range ss {
		fmt.Fprintf(tw, "%s", s.label)
		for vi := range values {
			fmt.Fprintf(tw, "\t%.3f", 1000*batch[si][vi])
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

func revenueMetric(m *sim.Metrics) float64 { return m.Revenue }
func servedMetric(m *sim.Metrics) float64  { return float64(m.Served) }

func runFig7(ctx context.Context, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	city := cfg.city(120)
	paperNs := []int{1000, 2000, 3000, 4000, 5000}
	labels := make([]string, len(paperNs))
	for i, n := range paperNs {
		labels[i] = fmt.Sprintf("%dK", n/1000)
	}
	return sweep(ctx, cfg, w, "n", labels, func(vi int, seed int64) core.Options {
		return core.Options{City: city, NumDrivers: cfg.Drivers(paperNs[vi]), Seed: seed}
	}, paperSeries(true), revenueMetric, "total revenue")
}

func runFig8(ctx context.Context, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	city := cfg.city(120)
	deltas := []float64{3, 5, 10, 20, 30}
	labels := make([]string, len(deltas))
	for i, d := range deltas {
		labels[i] = fmt.Sprintf("%gs", d)
	}
	return sweep(ctx, cfg, w, "Delta", labels, func(vi int, seed int64) core.Options {
		return core.Options{City: city, NumDrivers: cfg.Drivers(1000), Delta: deltas[vi], Seed: seed}
	}, paperSeries(false), revenueMetric, "total revenue")
}

func runFig9(ctx context.Context, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	city := cfg.city(120)
	tcs := []float64{5, 10, 15, 20, 40, 60, 80, 100} // minutes
	labels := make([]string, len(tcs))
	for i, tc := range tcs {
		labels[i] = fmt.Sprintf("%gm", tc)
	}
	return sweep(ctx, cfg, w, "t_c", labels, func(vi int, seed int64) core.Options {
		return core.Options{City: city, NumDrivers: cfg.Drivers(1000), TC: tcs[vi] * 60, Seed: seed}
	}, paperSeries(false), revenueMetric, "total revenue")
}

func runFig10(ctx context.Context, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	taus := []float64{60, 120, 180, 240, 300}
	labels := make([]string, len(taus))
	cities := make([]*workload.City, len(taus))
	for i, tau := range taus {
		labels[i] = fmt.Sprintf("%gs", tau)
		cities[i] = cfg.city(tau) // tau changes order deadlines, hence the city
	}
	return sweep(ctx, cfg, w, "tau", labels, func(vi int, seed int64) core.Options {
		return core.Options{City: cities[vi], NumDrivers: cfg.Drivers(1000), Seed: seed}
	}, paperSeries(false), revenueMetric, "total revenue")
}

func runFig13(ctx context.Context, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	ss := []series{
		{label: "RAND", alg: "RAND", mode: core.PredictNone},
		{label: "NEAR", alg: "NEAR", mode: core.PredictNone},
		{label: "POLAR", alg: "POLAR", mode: core.PredictOracle},
		{label: "SHORT", alg: "SHORT", mode: core.PredictOracle},
	}
	city := cfg.city(120)

	fmt.Fprintln(w, "(a) served orders vs number of drivers n")
	paperNs := []int{1000, 2000, 3000, 4000, 5000}
	nLabels := make([]string, len(paperNs))
	for i, n := range paperNs {
		nLabels[i] = fmt.Sprintf("%dK", n/1000)
	}
	if err := sweep(ctx, cfg, w, "n", nLabels, func(vi int, seed int64) core.Options {
		return core.Options{City: city, NumDrivers: cfg.Drivers(paperNs[vi]), Seed: seed}
	}, ss, servedMetric, "served orders"); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n(b) served orders vs time window t_c")
	tcs := []float64{5, 10, 15, 20, 40, 60, 80, 100}
	tcLabels := make([]string, len(tcs))
	for i, tc := range tcs {
		tcLabels[i] = fmt.Sprintf("%gm", tc)
	}
	if err := sweep(ctx, cfg, w, "t_c", tcLabels, func(vi int, seed int64) core.Options {
		return core.Options{City: city, NumDrivers: cfg.Drivers(1000), TC: tcs[vi] * 60, Seed: seed}
	}, ss, servedMetric, "served orders"); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n(c) served orders vs batch interval Delta")
	deltas := []float64{3, 5, 10, 20, 30}
	dLabels := make([]string, len(deltas))
	for i, d := range deltas {
		dLabels[i] = fmt.Sprintf("%gs", d)
	}
	if err := sweep(ctx, cfg, w, "Delta", dLabels, func(vi int, seed int64) core.Options {
		return core.Options{City: city, NumDrivers: cfg.Drivers(1000), Delta: deltas[vi], Seed: seed}
	}, ss, servedMetric, "served orders"); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n(d) served orders vs base waiting time tau")
	taus := []float64{60, 120, 180, 240, 300}
	tLabels := make([]string, len(taus))
	cities := make([]*workload.City, len(taus))
	for i, tau := range taus {
		tLabels[i] = fmt.Sprintf("%gs", tau)
		cities[i] = cfg.city(tau)
	}
	return sweep(ctx, cfg, w, "tau", tLabels, func(vi int, seed int64) core.Options {
		return core.Options{City: cities[vi], NumDrivers: cfg.Drivers(1000), Seed: seed}
	}, ss, servedMetric, "served orders")
}

// densityRamp maps a normalized density to an ASCII shade.
const densityRamp = " .:-=+*#%@"

func runFig5(ctx context.Context, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	city := cfg.city(120)
	rng := rand.New(rand.NewSource(cfg.CitySeed))
	orders := city.GenerateDay(0, rng)
	grid := city.Grid()
	counts := make([]int, grid.NumRegions())
	max := 0
	for _, o := range orders {
		if o.PostTime < 8*3600 || o.PostTime > 8*3600+45*60 {
			continue
		}
		r := grid.Region(o.Pickup)
		if r == geo.InvalidRegion {
			continue
		}
		counts[r]++
		if counts[r] > max {
			max = counts[r]
		}
	}
	fmt.Fprintf(w, "pickup density 8:00-8:45 (max %d orders per region; north at top)\n", max)
	for row := grid.Rows() - 1; row >= 0; row-- {
		for col := 0; col < grid.Cols(); col++ {
			c := counts[row*grid.Cols()+col]
			shade := 0
			if max > 0 {
				shade = c * (len(densityRamp) - 1) / max
			}
			fmt.Fprintf(w, "%c%c", densityRamp[shade], densityRamp[shade])
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runFig6(ctx context.Context, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	city := cfg.city(120)
	type agg struct {
		est, real float64
		n         int
	}
	grid := city.Grid()
	perRegion := make([]agg, grid.NumRegions())
	for seed := int64(1); seed <= int64(cfg.Seeds); seed++ {
		runner := core.NewRunner(core.Options{City: city, NumDrivers: cfg.Drivers(3000), Seed: seed})
		m, err := runner.Run(ctx, core.ShardDispatchers("IRG", seed, runner.Options().Shards), core.PredictOracle, nil)
		if err != nil {
			return err
		}
		for _, rec := range m.IdleRecords {
			if math.IsNaN(rec.Estimate) || math.IsInf(rec.Estimate, 0) {
				continue
			}
			a := &perRegion[rec.Region]
			a.est += rec.Estimate
			a.real += rec.Realized
			a.n++
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "region\trejoins\tpredicted idle (s)\treal idle (s)\n")
	var se, sr []float64
	for r, a := range perRegion {
		if a.n < 20 {
			continue // too few rejoins for a stable mean
		}
		est := a.est / float64(a.n)
		real := a.real / float64(a.n)
		se = append(se, est)
		sr = append(sr, real)
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\n", regionName(grid, geo.RegionID(r)), a.n, est, real)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(se) >= 2 {
		fmt.Fprintf(w, "pearson correlation(predicted, real) = %.3f over %d regions\n",
			correlation(se, sr), len(se))
	}
	return nil
}

// correlation returns the Pearson correlation coefficient.
func correlation(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		cov += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// runHistogram renders Figures 11/12: observed vs expected per-minute
// count distributions in the two test regions at 7 and 8 AM.
func runHistogram(ctx context.Context, cfg Config, w io.Writer, dropoffs bool) error {
	cfg = cfg.withDefaults()
	cfg.Scale = 1.0 // sampling only, no simulation; match the paper's volume
	city := cfg.city(120)
	r1, r2 := chiSquareRegions(cfg)
	rng := rand.New(rand.NewSource(cfg.CitySeed + 9))
	for _, cell := range []struct {
		label  string
		region int
		hour   int
	}{
		{"region 1", r1, 7}, {"region 1", r1, 8},
		{"region 2", r2, 7}, {"region 2", r2, 8},
	} {
		var samples []int
		for day := 0; day < 21; day++ {
			if dropoffs {
				samples = append(samples, city.PerMinuteDropoffCounts(0, cell.hour*60, 10, cell.region, rng)...)
			} else {
				samples = append(samples, city.PerMinuteCounts(0, cell.hour*60, 10, cell.region, rng)...)
			}
		}
		bins := statsHistogram(samples)
		fmt.Fprintf(w, "%s, %d:00 AM (%d samples)\n", cell.label, cell.hour, len(samples))
		for _, b := range bins {
			fmt.Fprintf(w, "  %3d~%-3d observed=%-4d expected=%.1f\n", b.Lo, b.Hi, b.Observed, b.Expected)
		}
	}
	return nil
}

func runFig11(ctx context.Context, cfg Config, w io.Writer) error {
	return runHistogram(ctx, cfg, w, false)
}
func runFig12(ctx context.Context, cfg Config, w io.Writer) error {
	return runHistogram(ctx, cfg, w, true)
}

// statsHistogram buckets samples with an adaptive bin width (the paper
// uses width 10 at full scale; scaled counts need narrower bins).
func statsHistogram(samples []int) []stats.HistogramBin {
	minV, maxV := samples[0], samples[0]
	for _, s := range samples {
		if s < minV {
			minV = s
		}
		if s > maxV {
			maxV = s
		}
	}
	width := (maxV - minV) / 6
	if width < 1 {
		width = 1
	}
	return stats.PoissonHistogram(samples, width)
}
