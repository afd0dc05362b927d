package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"text/tabwriter"

	"mrvd/internal/core"
	"mrvd/internal/experiments/matrix"
	"mrvd/internal/geo"
	"mrvd/internal/predict"
	"mrvd/internal/stats"
)

func init() {
	register(Preset{ID: "fig5", Title: "Spatial distribution of pickups, 8:00-8:45 AM (ASCII density)", Render: renderFig5})
	register(Preset{ID: "fig6", Title: "Predicted vs real idle time per region", Grids: fig6Grid, Render: renderFig6})
	register(figure("fig7", "Effect of the number of drivers n (total revenue, batch time)",
		"total revenue", revenueMetric, paperSeries(true), nPanel))
	register(figure("fig8", "Effect of the batch interval Delta (total revenue, batch time)",
		"total revenue", revenueMetric, paperSeries(false), deltaPanel))
	register(figure("fig9", "Effect of the time window t_c (total revenue, batch time)",
		"total revenue", revenueMetric, paperSeries(false), tcPanel))
	register(figure("fig10", "Effect of the base waiting time tau (total revenue, batch time)",
		"total revenue", revenueMetric, paperSeries(false), tauPanel))
	register(Preset{ID: "fig11", Title: "Observed vs expected order-count histogram (chi-square data)", Render: renderFig11})
	register(Preset{ID: "fig12", Title: "Observed vs expected driver-count histogram (chi-square data)", Render: renderFig12})
	register(figure("fig13", "Total served orders: SHORT vs RAND/NEAR/POLAR across n, t_c, Delta, tau",
		"served orders", servedMetric, []core.SweepSeries{
			{Algorithm: "RAND"},
			{Algorithm: "NEAR"},
			{Algorithm: "POLAR", Mode: core.PredictOracle},
			{Algorithm: "SHORT", Mode: core.PredictOracle},
		}, nPanel, tcPanel, deltaPanel, tauPanel))
}

// paperSeries returns the paper's plotted lines in legend order. The -P
// variants forecast with STNet (the DeepST substitute); -R uses real
// demand.
func paperSeries(includeUpper bool) []core.SweepSeries {
	stnet := func(int64) predict.Predictor { return &predict.STNet{} }
	s := []core.SweepSeries{
		{Algorithm: "RAND"},
		{Algorithm: "LTG"},
		{Algorithm: "NEAR"},
		{Algorithm: "POLAR", Mode: core.PredictModel, Model: stnet},
		{Label: "IRG-P", Algorithm: "IRG", Mode: core.PredictModel, Model: stnet},
		{Label: "IRG-R", Algorithm: "IRG", Mode: core.PredictOracle},
		{Label: "LS-P", Algorithm: "LS", Mode: core.PredictModel, Model: stnet},
		{Label: "LS-R", Algorithm: "LS", Mode: core.PredictOracle},
	}
	if includeUpper {
		s = append(s, core.SweepSeries{Algorithm: "UPPER"})
	}
	return s
}

// panel is one plotted parameter sweep of Figures 7-10 and 13: a column
// per parameter value — a fleet size, or a layer at the 1K fleet — and
// a row per series.
type panel struct {
	param, title string
	fleets       []int             // paper fleet sizes
	layers       []matrix.Scenario // nil: the base layer
}

// baseLayer is the name matrix gives the layer of a grid without any.
const baseLayer = "base"

func nPanel(Params) panel {
	return panel{param: "n", title: "number of drivers n", fleets: []int{1000, 2000, 3000, 4000, 5000}}
}

func deltaPanel(Params) panel {
	pn := panel{param: "Delta", title: "batch interval Delta", fleets: []int{1000}}
	for _, d := range []float64{3, 5, 10, 20, 30} {
		pn.layers = append(pn.layers, matrix.Scenario{Name: fmt.Sprintf("%gs", d),
			Apply: func(o *core.Options) { o.Delta = d }})
	}
	return pn
}

func tcPanel(Params) panel {
	pn := panel{param: "t_c", title: "time window t_c", fleets: []int{1000}}
	for _, minutes := range []float64{5, 10, 15, 20, 40, 60, 80, 100} {
		pn.layers = append(pn.layers, matrix.Scenario{Name: fmt.Sprintf("%gm", minutes),
			Apply: func(o *core.Options) { o.TC = minutes * 60 }})
	}
	return pn
}

func tauPanel(p Params) panel {
	pn := panel{param: "tau", title: "base waiting time tau", fleets: []int{1000}}
	for _, tau := range []float64{60, 120, 180, 240, 300} {
		city := p.city(tau) // tau changes order deadlines, hence the city
		pn.layers = append(pn.layers, matrix.Scenario{Name: fmt.Sprintf("%gs", tau),
			Apply: func(o *core.Options) { o.City = city }})
	}
	return pn
}

// columns lists the panel's column labels and the (layer, fleet) each
// one reads.
func (pn panel) columns(p Params) (labels []string, keys []matrix.CellKey) {
	if pn.layers == nil {
		for _, n := range pn.fleets {
			labels = append(labels, fmt.Sprintf("%dK", n/1000))
			keys = append(keys, matrix.CellKey{Scenario: baseLayer, Fleet: p.drivers(n)})
		}
		return labels, keys
	}
	for _, l := range pn.layers {
		labels = append(labels, l.Name)
		keys = append(keys, matrix.CellKey{Scenario: l.Name, Fleet: p.drivers(pn.fleets[0])})
	}
	return labels, keys
}

// figure builds a Figure 7-10/13 preset: one grid per panel, rendered as
// one metric table and one batch-time table with a column per value
// (under an "(a) ..." heading when the figure has several panels).
func figure(id, title, metricName string, metric func(matrix.TrialResult) float64, series []core.SweepSeries, panels ...func(Params) panel) Preset {
	return Preset{
		ID: id, Title: title,
		Grids: func(p Params) []matrix.Config {
			var grids []matrix.Config
			for _, build := range panels {
				pn := build(p)
				grids = append(grids, matrix.Config{
					Name:        id + "-" + pn.param,
					Base:        core.Options{City: p.city(120)},
					Series:      series,
					Scenarios:   pn.layers,
					Fleets:      p.fleets(pn.fleets...),
					Seeds:       p.seedList(),
					Workers:     p.timedWorkers(),
					KeepMetrics: true,
				})
			}
			return grids
		},
		Render: func(w io.Writer, p Params, res []*matrix.Result) error {
			for i, build := range panels {
				pn := build(p)
				if i > 0 {
					fmt.Fprintln(w)
				}
				if len(panels) > 1 {
					fmt.Fprintf(w, "(%c) %s vs %s\n", 'a'+i, metricName, pn.title)
				}
				labels, keys := pn.columns(p)
				tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
				seriesTable(tw, res[i], fmt.Sprintf("%s (%s)", metricName, pn.param), labels, keys, "%.4g", metric)
				fmt.Fprintln(tw)
				seriesTable(tw, res[i], fmt.Sprintf("batch time µs (%s)", pn.param), labels, keys, "%.3g", batchMicros)
				if err := tw.Flush(); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// seriesTable writes one table of a grid: a row per series, a column per
// key, each cell the metric's mean over the cell's trials.
func seriesTable(tw io.Writer, res *matrix.Result, corner string, labels []string, keys []matrix.CellKey, format string, metric func(matrix.TrialResult) float64) {
	fmt.Fprint(tw, corner)
	for _, l := range labels {
		fmt.Fprintf(tw, "\t%s", l)
	}
	fmt.Fprintln(tw)
	for _, series := range res.Algorithms {
		fmt.Fprint(tw, series)
		for _, k := range keys {
			k.Algorithm = series
			fmt.Fprintf(tw, "\t"+format, mean(cell(res, k), metric))
		}
		fmt.Fprintln(tw)
	}
}

// cell returns a grid cell the preset's own grid description put there.
func cell(res *matrix.Result, k matrix.CellKey) []matrix.TrialResult {
	c := res.Cell(k)
	if c == nil {
		panic(fmt.Sprintf("experiments: grid %s has no cell %s", res.Name, k))
	}
	return c.Trials
}

// mean averages a trial metric over a cell's instances.
func mean(trials []matrix.TrialResult, metric func(matrix.TrialResult) float64) float64 {
	sum := 0.0
	for _, t := range trials {
		sum += metric(t)
	}
	return sum / float64(len(trials))
}

func revenueMetric(t matrix.TrialResult) float64 { return t.Summary.Revenue }
func servedMetric(t matrix.TrialResult) float64  { return float64(t.Summary.Served) }

// batchMicros is the wall-clock column: mean dispatcher time per batch
// in microseconds (the per-batch times of a scaled-down city are far
// below a millisecond). Needs Config.KeepMetrics.
func batchMicros(t matrix.TrialResult) float64 { return 1e6 * t.Metrics.AvgBatchSeconds() }

// densityRamp maps a normalized density to an ASCII shade.
const densityRamp = " .:-=+*#%@"

func renderFig5(w io.Writer, p Params, _ []*matrix.Result) error {
	city := p.city(120)
	rng := rand.New(rand.NewSource(citySeed))
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

func fig6Grid(p Params) []matrix.Config {
	return []matrix.Config{{
		Name:        "fig6",
		Base:        core.Options{City: p.city(120), NumDrivers: p.drivers(3000)},
		Algorithms:  []string{"IRG"},
		Mode:        core.PredictOracle,
		Seeds:       p.seedList(),
		Workers:     p.Workers,
		KeepMetrics: true,
	}}
}

func renderFig6(w io.Writer, p Params, res []*matrix.Result) error {
	type agg struct {
		est, real float64
		n         int
	}
	grid := p.city(120).Grid()
	perRegion := make([]agg, grid.NumRegions())
	for _, t := range res[0].Cells[0].Trials {
		for _, rec := range t.Metrics.IdleRecords {
			if !finite(rec.Estimate) {
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

// renderHistogram renders Figures 11/12: observed vs expected per-minute
// count distributions in the two test regions at 7 and 8 AM.
func renderHistogram(w io.Writer, p Params, dropoffs bool) error {
	p.Scale = 1.0 // sampling only, no simulation; match the paper's volume
	city := p.city(120)
	r1, r2 := chiSquareRegions(city)
	rng := rand.New(rand.NewSource(citySeed + 9))
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

func renderFig11(w io.Writer, p Params, _ []*matrix.Result) error {
	return renderHistogram(w, p, false)
}
func renderFig12(w io.Writer, p Params, _ []*matrix.Result) error {
	return renderHistogram(w, p, true)
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
