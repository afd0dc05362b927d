package experiments

import (
	"mrvd/internal/core"
	"mrvd/internal/experiments/matrix"
	"mrvd/internal/pool"
	"mrvd/internal/sim"
)

// The report presets: grids rendered as the matrix's generic markdown
// report, with trial statistics and paired comparisons.
func init() {
	register(Preset{ID: "disruptions", Title: "Disruption ramp: IRG vs LS serve-rate degradation as cancel hazard × decline probability × travel noise rise", Grids: disruptionRamp})
	register(Preset{ID: "pooling", Title: "Pooled vs solo: POOL dispatch at capacity 2 and 4 against single-rider dispatch on an undersupplied fleet", Grids: pooledVsSolo})
	register(Preset{ID: "fleets", Title: "Fleet scaling: IRG vs LS vs NEAR across fleet sizes", Grids: fleetScaling})
}

// disruptionRamp crosses the disruption knobs in four escalating steps
// and runs IRG and LS over every step: the default comparisons give the
// paired IRG-vs-LS result per step, answering "how does the IRG
// advantage hold up as the world degrades?". Scenario RNG seeds are
// fixed per layer so layers are distinct but reproducible.
func disruptionRamp(p Params) []matrix.Config {
	return []matrix.Config{{
		Name:       "disruptions",
		Base:       core.Options{City: p.city(120), NumDrivers: p.drivers(1000)},
		Algorithms: []string{"IRG", "LS"},
		Scenarios: []matrix.Scenario{
			{Name: "none"},
			{Name: "mild", Scenario: sim.ScenarioConfig{
				CancelRate: 0.05, DeclineProb: 0.02, TravelNoise: 0.05, Seed: 101,
			}},
			{Name: "moderate", Scenario: sim.ScenarioConfig{
				CancelRate: 0.15, DeclineProb: 0.05, TravelNoise: 0.10, Seed: 102,
			}},
			{Name: "severe", Scenario: sim.ScenarioConfig{
				CancelRate: 0.30, DeclineProb: 0.10, TravelNoise: 0.20, Seed: 103,
			}},
		},
		Seeds:   p.seedList(),
		Workers: p.Workers,
		Mode:    core.PredictOracle,
	}}
}

// pooledVsSolo runs the POOL dispatcher on an undersupplied fleet
// (half the ramp's drivers, so solo dispatch saturates) with pooling
// off, at capacity 2, and at capacity 4 — the layer axis carries the
// pooling config, and the explicit comparisons pair each pooled layer
// against solo on the same seeds.
func pooledVsSolo(p Params) []matrix.Config {
	fleet := p.drivers(500)
	cell := func(scenario string) matrix.CellKey {
		return matrix.CellKey{Algorithm: "POOL", Scenario: scenario, Fleet: fleet}
	}
	return []matrix.Config{{
		Name:       "pooling",
		Base:       core.Options{City: p.city(120), NumDrivers: fleet},
		Algorithms: []string{"POOL"},
		Scenarios: []matrix.Scenario{
			{Name: "solo"},
			{Name: "cap2", Pooling: pool.Config{Capacity: 2}},
			{Name: "cap4", Pooling: pool.Config{Capacity: 4}},
		},
		Seeds:   p.seedList(),
		Workers: p.Workers,
		Mode:    core.PredictOracle,
		Comparisons: []matrix.Comparison{
			{Label: "cap2 vs solo", A: cell("cap2"), B: cell("solo")},
			{Label: "cap4 vs solo", A: cell("cap4"), B: cell("solo")},
		},
	}}
}

// fleetScaling sweeps fleet sizes with no disruptions — the paper's
// Figure 7 axis with CIs and paired per-fleet comparisons, and the
// preset mrvd-exp's -algs/-fleets overrides turn into an ad-hoc grid.
func fleetScaling(p Params) []matrix.Config {
	return []matrix.Config{{
		Name:       "fleets",
		Base:       core.Options{City: p.city(120)},
		Algorithms: []string{"IRG", "LS", "NEAR"},
		Fleets:     p.fleets(500, 1000, 2000),
		Seeds:      p.seedList(),
		Workers:    p.Workers,
		Mode:       core.PredictOracle,
	}}
}
