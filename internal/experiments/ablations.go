package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"mrvd/internal/core"
	"mrvd/internal/dispatch"
	"mrvd/internal/queueing"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
	"mrvd/internal/stats"
)

func init() {
	register(Experiment{ID: "ablation-reneging", Title: "Reneging exponent beta: effect on IRG revenue and idle-estimate accuracy", Run: runAblationReneging})
	register(Experiment{ID: "ablation-lsseed", Title: "LS seeded by IRG vs seeded by RAND", Run: runAblationLSSeed})
	register(Experiment{ID: "ablation-coster", Title: "Great-circle coster vs road-network shortest paths", Run: runAblationCoster})
	register(Experiment{ID: "ablation-muupdate", Title: "IRG with vs without the mu feedback of Algorithm 2 line 11", Run: runAblationMuUpdate})
	register(Experiment{ID: "ablation-reposition", Title: "IRG with vs without queue-guided idle-driver repositioning (framework extension)", Run: runAblationReposition})
}

// runDirect executes a concrete dispatcher (not the name factory) over
// the configured instance seeds and returns mean revenue, served count,
// and mean idle-estimate absolute error where estimates exist.
func (c Config) runDirect(ctx context.Context, opts core.Options, mk func(seed int64) sim.Dispatcher, mode core.PredictionMode) (revenue, served, idleMAE float64, err error) {
	var rev, srv, mae stats.Summary
	for seed := int64(1); seed <= int64(c.Seeds); seed++ {
		o := opts
		o.Seed = seed
		runner := core.NewRunner(o)
		m, rerr := runner.Run(ctx, func(int) (sim.Dispatcher, error) { return mk(seed), nil }, mode, nil)
		if rerr != nil {
			return 0, 0, 0, rerr
		}
		rev.Add(m.Revenue)
		srv.Add(float64(m.Served))
		for _, rec := range m.IdleRecords {
			// Drivers that rejoin with no estimator installed, or in a
			// region the model assigns unbounded wait, carry NaN/Inf
			// estimates; they have no defined error.
			if math.IsNaN(rec.Estimate) || math.IsInf(rec.Estimate, 0) {
				continue
			}
			mae.Add(math.Abs(rec.Estimate - rec.Realized))
		}
	}
	return rev.Mean(), srv.Mean(), mae.Mean(), nil
}

func runAblationReneging(ctx context.Context, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	city := cfg.city(120)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "beta\trevenue\tserved\tidle-estimate MAE (s)\n")
	for _, beta := range []float64{0, 0.02, 0.05, 0.1, 0.2} {
		model := queueing.New(queueing.Config{Beta: beta})
		rev, served, mae, err := cfg.runDirect(ctx,
			core.Options{City: city, NumDrivers: cfg.Drivers(1000)},
			func(int64) sim.Dispatcher { return &dispatch.IRG{Model: model} },
			core.PredictOracle)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%.2f\t%.4g\t%.0f\t%.2f\n", beta, rev, served, mae)
	}
	return tw.Flush()
}

func runAblationLSSeed(ctx context.Context, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	city := cfg.city(120)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "LS seed\trevenue\tserved\n")
	seeds := []struct {
		label string
		mk    func(seed int64) sim.Dispatcher
	}{
		{"IRG (paper)", func(int64) sim.Dispatcher { return &dispatch.LS{} }},
		{"RAND", func(seed int64) sim.Dispatcher {
			return &dispatch.LS{Seed: &dispatch.RAND{Seed: seed}}
		}},
		{"NEAR", func(int64) sim.Dispatcher {
			return &dispatch.LS{Seed: dispatch.NEAR{}}
		}},
	}
	for _, s := range seeds {
		rev, served, _, err := cfg.runDirect(ctx,
			core.Options{City: city, NumDrivers: cfg.Drivers(1000)}, s.mk, core.PredictOracle)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%.0f\n", s.label, rev, served)
	}
	return tw.Flush()
}

func runAblationCoster(ctx context.Context, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	// The graph coster runs Dijkstra per query; keep this ablation small
	// regardless of the configured scale.
	small := cfg
	if small.Scale > 0.05 {
		small.Scale = 0.05
	}
	city := small.city(120)
	network := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: small.CitySeed})
	costers := []struct {
		label string
		c     roadnet.Coster
	}{
		{"manhattan@11m/s (default)", roadnet.NewDefaultCoster()},
		{"euclid x1.3 detour", &roadnet.GreatCircleCoster{SpeedMPS: roadnet.DefaultSpeedMPS, DetourFactor: 1.3}},
		{"road-network dijkstra", roadnet.NewGraphCoster(network)},
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "coster\tIRG revenue\tserved\tavg batch (s)\n")
	for _, c := range costers {
		rev, served, batch, err := small.runPoint(ctx, core.Options{
			City: city, NumDrivers: small.Drivers(1000), Coster: c.c,
			Delta: 10, // fewer batches: Dijkstra-backed costs are slow
		}, "IRG", core.PredictOracle, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%.0f\t%.4f\n", c.label, rev, served, batch)
	}
	return tw.Flush()
}

func runAblationMuUpdate(ctx context.Context, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	city := cfg.city(120)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "IRG variant\trevenue\tserved\n")
	variants := []struct {
		label string
		mk    func(seed int64) sim.Dispatcher
	}{
		{"mu update on (Alg. 2 line 11)", func(int64) sim.Dispatcher { return &dispatch.IRG{} }},
		{"mu update off (frozen scores)", func(int64) sim.Dispatcher { return &dispatch.IRG{DisableMuUpdate: true} }},
	}
	for _, v := range variants {
		rev, served, _, err := cfg.runDirect(ctx,
			core.Options{City: city, NumDrivers: cfg.Drivers(1000)}, v.mk, core.PredictOracle)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%.0f\n", v.label, rev, served)
	}
	return tw.Flush()
}

func runAblationReposition(ctx context.Context, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	city := cfg.city(120)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "repositioning\trevenue\tserved\n")
	variants := []struct {
		label string
		opts  func() core.Options
	}{
		{"off (paper base)", func() core.Options {
			return core.Options{City: city, NumDrivers: cfg.Drivers(1000)}
		}},
		{"queue-guided (extension)", func() core.Options {
			return core.Options{
				City: city, NumDrivers: cfg.Drivers(1000),
				Repositioner: &dispatch.QueueReposition{}, RepositionAfter: 240,
			}
		}},
	}
	for _, v := range variants {
		rev, served, _, err := cfg.runDirect(ctx,
			v.opts(),
			func(int64) sim.Dispatcher { return &dispatch.IRG{} }, core.PredictOracle)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%.0f\n", v.label, rev, served)
	}
	return tw.Flush()
}
