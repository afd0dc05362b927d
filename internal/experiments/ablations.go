package experiments

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"mrvd/internal/core"
	"mrvd/internal/dispatch"
	"mrvd/internal/experiments/matrix"
	"mrvd/internal/queueing"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
	"mrvd/internal/stats"
)

func init() {
	register(ablation("ablation-reneging", "Reneging exponent beta: effect on IRG revenue and idle-estimate accuracy",
		"beta\trevenue\tserved\tidle-estimate MAE (s)", renegingGrid, idleMAEColumn))
	register(ablation("ablation-lsseed", "LS seeded by IRG vs seeded by RAND",
		"LS seed\trevenue\tserved", lsSeedGrid, nil))
	register(ablation("ablation-coster", "Great-circle coster vs road-network shortest paths",
		"coster\tIRG revenue\tserved\tavg batch (µs)", costerGrid, func(trials []matrix.TrialResult) string {
			return fmt.Sprintf("%.3g", mean(trials, batchMicros))
		}))
	register(ablation("ablation-muupdate", "IRG with vs without the mu feedback of Algorithm 2 line 11",
		"IRG variant\trevenue\tserved", muUpdateGrid, nil))
	register(ablation("ablation-reposition", "IRG with vs without queue-guided idle-driver repositioning (framework extension)",
		"repositioning\trevenue\tserved", repositionGrid, nil))
}

// ablation builds a design-choice preset: a grid whose rows — its series
// when it has several, else its layers — each print mean revenue and
// served count at the 1K fleet under the oracle, plus an optional extra
// column.
func ablation(id, title, header string, grid func(Params) matrix.Config, extra func([]matrix.TrialResult) string) Preset {
	return Preset{
		ID: id, Title: title,
		Grids: func(p Params) []matrix.Config {
			cfg := grid(p)
			cfg.Name = id
			cfg.Seeds = p.seedList()
			cfg.KeepMetrics = extra != nil
			return []matrix.Config{cfg}
		},
		Render: func(w io.Writer, _ Params, res []*matrix.Result) error {
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, header)
			for _, c := range res[0].Cells {
				label := c.Algorithm
				if len(res[0].Algorithms) == 1 {
					label = c.Scenario
				}
				fmt.Fprintf(tw, "%s\t%.4g\t%.0f", label, mean(c.Trials, revenueMetric), mean(c.Trials, servedMetric))
				if extra != nil {
					fmt.Fprintf(tw, "\t%s", extra(c.Trials))
				}
				fmt.Fprintln(tw)
			}
			return tw.Flush()
		},
	}
}

// idleMAEColumn is the mean absolute idle-estimate error over every
// defined estimate of the cell.
func idleMAEColumn(trials []matrix.TrialResult) string {
	var mae stats.Summary
	for _, t := range trials {
		for _, rec := range t.Metrics.IdleRecords {
			if finite(rec.Estimate) {
				mae.Add(math.Abs(rec.Estimate - rec.Realized))
			}
		}
	}
	return fmt.Sprintf("%.2f", mae.Mean())
}

// ablationBase is the ablations' shared setting: the default city at the
// 1K fleet.
func ablationBase(p Params) matrix.Config {
	return matrix.Config{
		Base:    core.Options{City: p.city(120), NumDrivers: p.drivers(1000)},
		Workers: p.Workers,
	}
}

func renegingGrid(p Params) matrix.Config {
	cfg := ablationBase(p)
	for _, beta := range []float64{0, 0.02, 0.05, 0.1, 0.2} {
		cfg.Series = append(cfg.Series, core.SweepSeries{
			Label: fmt.Sprintf("%.2f", beta),
			New: func(int64) sim.Dispatcher {
				return &dispatch.IRG{Model: queueing.New(queueing.Config{Beta: beta})}
			},
			Mode: core.PredictOracle,
		})
	}
	return cfg
}

func lsSeedGrid(p Params) matrix.Config {
	cfg := ablationBase(p)
	cfg.Series = []core.SweepSeries{
		{Label: "IRG (paper)", Algorithm: "LS", Mode: core.PredictOracle},
		{Label: "RAND", Mode: core.PredictOracle, New: func(seed int64) sim.Dispatcher {
			return &dispatch.LS{Seed: &dispatch.RAND{Seed: seed}}
		}},
		{Label: "NEAR", Mode: core.PredictOracle, New: func(int64) sim.Dispatcher {
			return &dispatch.LS{Seed: dispatch.NEAR{}}
		}},
	}
	return cfg
}

func costerGrid(p Params) matrix.Config {
	// The graph coster runs Dijkstra per query; keep this ablation small
	// regardless of the configured scale, with fewer batches.
	p.Scale = min(p.Scale, 0.05)
	cfg := ablationBase(p)
	cfg.Base.Delta = 10
	cfg.Workers = p.timedWorkers()
	cfg.Algorithms, cfg.Mode = []string{"IRG"}, core.PredictOracle
	network := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: citySeed})
	for _, c := range []struct {
		label  string
		coster roadnet.Coster
	}{
		{"manhattan@11m/s (default)", roadnet.NewDefaultCoster()},
		{"euclid x1.3 detour", &roadnet.GreatCircleCoster{SpeedMPS: roadnet.DefaultSpeedMPS, DetourFactor: 1.3}},
		{"road-network dijkstra", roadnet.NewGraphCoster(network)},
	} {
		cfg.Scenarios = append(cfg.Scenarios, matrix.Scenario{Name: c.label,
			Apply: func(o *core.Options) { o.Coster = c.coster }})
	}
	return cfg
}

func muUpdateGrid(p Params) matrix.Config {
	cfg := ablationBase(p)
	cfg.Series = []core.SweepSeries{
		{Label: "mu update on (Alg. 2 line 11)", Algorithm: "IRG", Mode: core.PredictOracle},
		{Label: "mu update off (frozen scores)", Mode: core.PredictOracle, New: func(int64) sim.Dispatcher {
			return &dispatch.IRG{DisableMuUpdate: true}
		}},
	}
	return cfg
}

func repositionGrid(p Params) matrix.Config {
	cfg := ablationBase(p)
	cfg.Algorithms, cfg.Mode = []string{"IRG"}, core.PredictOracle
	cfg.Scenarios = []matrix.Scenario{
		{Name: "off (paper base)"},
		{Name: "queue-guided (extension)", Apply: func(o *core.Options) {
			o.Repositioner, o.RepositionAfter = &dispatch.QueueReposition{}, 240
		}},
	}
	return cfg
}
