package experiments

import (
	"context"
	"io"
	"sort"

	"mrvd/internal/experiments/matrix"
	"mrvd/internal/workload"
)

// paperOrdersPerDay is the NYC test day's order volume (Section 6.1) —
// the unit Params.Scale multiplies.
const paperOrdersPerDay = 282255

// Params scales and seeds a preset: the one knob set every experiment
// in the repo is sized by.
type Params struct {
	// Scale multiplies the paper's order volume and fleet sizes ("1K" =
	// 1000 drivers). Default 0.05.
	Scale float64
	// Seeds is how many problem instances are averaged per data point
	// (the paper uses 10). Default 5.
	Seeds int
	// Workers bounds parallel cells (0 = GOMAXPROCS, except that presets
	// printing a wall-clock column run one cell at a time unless told
	// otherwise: parallel cells would inflate it with CPU contention).
	Workers int
}

// citySeed fixes the synthetic city's structure, and seeds the other
// fixed draws of the presets.
const citySeed = 31

func (p Params) withDefaults() Params {
	if p.Scale <= 0 {
		p.Scale = 0.05
	}
	if p.Seeds <= 0 {
		p.Seeds = 5
	}
	return p
}

// orders returns the scaled daily order volume.
func (p Params) orders() int { return int(float64(paperOrdersPerDay)*p.Scale + 0.5) }

// drivers converts a paper fleet size to the scaled count.
func (p Params) drivers(paperN int) int {
	return max(1, int(float64(paperN)*p.Scale+0.5))
}

// fleets scales a list of paper fleet sizes, dropping the repeats a tiny
// Scale collapses them into.
func (p Params) fleets(paperNs ...int) []int {
	var out []int
	for _, n := range paperNs {
		if d := p.drivers(n); len(out) == 0 || out[len(out)-1] != d {
			out = append(out, d)
		}
	}
	return out
}

// city builds the experiment city at the configured scale; baseWait is
// the paper's tau.
func (p Params) city(baseWait float64) *workload.City {
	return workload.NewCity(workload.CityConfig{
		OrdersPerDay:    p.orders(),
		BaseWaitSeconds: baseWait,
		Seed:            citySeed,
	})
}

// seedList returns the instance seeds 1..Seeds of a data point.
func (p Params) seedList() []int64 {
	seeds := make([]int64, p.Seeds)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// timedWorkers is the worker count of presets that print per-batch wall
// time.
func (p Params) timedWorkers() int {
	if p.Workers == 0 {
		return 1
	}
	return p.Workers
}

// Preset is one registered experiment: a grid description plus a
// renderer over the grid's per-trial records.
type Preset struct {
	// ID names the preset: a matrix ("disruptions") or a paper artifact
	// ("table3", "fig7", "ablation-reneging").
	ID string
	// Title describes what the preset shows.
	Title string
	// Grids builds the matrices the preset runs — one for all but the
	// multi-panel figures; nil for the artifacts that only sample the
	// workload and simulate nothing.
	Grids func(Params) []matrix.Config
	// Render writes the preset's text to w from the completed grids, in
	// Grids order; nil renders each grid's generic markdown report.
	Render func(w io.Writer, p Params, res []*matrix.Result) error
}

// Run executes the preset's grids and renders them to w. The results
// are returned for callers that also want the machine-readable reports.
func (e Preset) Run(ctx context.Context, p Params, w io.Writer) ([]*matrix.Result, error) {
	p = p.withDefaults()
	var res []*matrix.Result
	if e.Grids != nil {
		for _, cfg := range e.Grids(p) {
			r, err := matrix.Run(ctx, cfg)
			if err != nil {
				return nil, err
			}
			res = append(res, r)
		}
	}
	if e.Render != nil {
		return res, e.Render(w, p, res)
	}
	for _, r := range res {
		if err := r.Markdown(w); err != nil {
			return nil, err
		}
	}
	return res, nil
}

var registry = map[string]Preset{}

func register(e Preset) { registry[e.ID] = e }

// Lookup returns a registered preset.
func Lookup(id string) (Preset, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs lists registered preset ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
