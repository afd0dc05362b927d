package sim_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mrvd/internal/dispatch"
	"mrvd/internal/geo"
	"mrvd/internal/obs"
	"mrvd/internal/pool"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
	"mrvd/internal/workload"
)

// peakHour is a small fixed-seed instance: the orders a synthetic city
// posts between 07:00 and 08:00, re-based to t=0 and renumbered, capped
// at limit.
func peakHour(perDay, limit, fleet int) ([]trace.Order, []geo.Point, *geo.Grid) {
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: perDay, Seed: 17})
	rng := rand.New(rand.NewSource(5))
	day := city.GenerateDay(0, rng)
	var orders []trace.Order
	for _, o := range day {
		if o.PostTime < 7*3600 || o.PostTime >= 8*3600 || len(orders) == limit {
			continue
		}
		o.ID = trace.OrderID(len(orders))
		o.PostTime -= 7 * 3600
		o.Deadline -= 7 * 3600
		orders = append(orders, o)
	}
	return orders, city.InitialDrivers(fleet, orders, rng), city.Grid()
}

// cancelScript is a trace replay that also stages each scripted cancel
// request at the first batch at or after its time, and, as the
// CancelableSource contract asks, not before Poll has released its
// order. An id the trace lacks is staged on time, for the engine to
// drop.
type cancelScript struct {
	*sim.SliceSource
	now     float64
	post    map[trace.OrderID]float64 // the trace's post times
	pending []scriptedCancel          // sorted by at
}

type scriptedCancel struct {
	at float64
	id trace.OrderID
}

func (s *cancelScript) Poll(now float64) ([]trace.Order, bool) {
	s.now = now
	return s.SliceSource.Poll(now)
}

func (s *cancelScript) PollCancels() []trace.OrderID {
	var ids []trace.OrderID
	held := s.pending[:0]
	for _, c := range s.pending {
		if post, ok := s.post[c.id]; c.at > s.now || ok && post > s.now {
			held = append(held, c)
		} else {
			ids = append(ids, c.id)
		}
	}
	s.pending = held
	return ids
}

var wallMS = regexp.MustCompile(`,"wall_ms":[^}]*`)

// obsOutput renders what the golden pins: the registry's non-histogram
// families in exposition format, then the span stream without its one
// wall-clock field.
func obsOutput(t *testing.T, reg *obs.Registry, spans []byte) string {
	t.Helper()
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	var hist []string
	for _, f := range reg.Gather() {
		if f.Kind == "histogram" {
			hist = append(hist, f.Name)
		}
	}
	var out strings.Builder
	for _, line := range strings.SplitAfter(text.String(), "\n") {
		keep := true
		for _, name := range hist {
			if strings.Contains(line, name) {
				keep = false
			}
		}
		if keep {
			out.WriteString(line)
		}
	}
	out.Write(wallMS.ReplaceAll(spans, nil))
	return out.String()
}

// TestObsGolden is the licence the hooks-to-Observer refactor was made
// under: three fixed-seed engine runs — solo IRG with obs alone on the
// stream, POOL with scripted pre- and post-pickup cancels, and a
// scenario run with cancel hazard, declines and travel noise, the last
// two behind a user observer — must reproduce, byte for byte, the spans
// and lifecycle families the direct hooks wrote. The goldens were
// captured once by writing obsOutput's result from this same file in a
// clone of the commit before the hooks became an Observer (PR 16); the
// test only reads them. A change that alters the span schema or a
// family on purpose regenerates them in its own diff.
func TestObsGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(cfg sim.Config) (sim.OrderSource, []geo.Point, sim.Config, sim.Dispatcher)
	}{
		{"solo", func(cfg sim.Config) (sim.OrderSource, []geo.Point, sim.Config, sim.Dispatcher) {
			orders, starts, grid := peakHour(3000, 300, 40)
			cfg.Grid = grid
			return sim.NewSliceSource(orders), starts, cfg, &dispatch.IRG{}
		}},
		{"pooled_cancels", func(cfg sim.Config) (sim.OrderSource, []geo.Point, sim.Config, sim.Dispatcher) {
			orders, starts, grid := peakHour(12000, 300, 40)
			cfg.Grid = grid
			cfg.Pooling = pool.Config{Capacity: 3, MaxDetourSeconds: 400}
			cfg.Observer = sim.ObserverFuncs{}
			// Every third order cancels 20 s after posting (waiting, or
			// committed but not yet picked up), every third 15 min after
			// (onboard or done: the request is dropped).
			src := &cancelScript{SliceSource: sim.NewSliceSource(orders), post: make(map[trace.OrderID]float64)}
			for _, o := range orders {
				src.post[o.ID] = o.PostTime
				switch o.ID % 3 {
				case 0:
					src.pending = append(src.pending, scriptedCancel{at: o.PostTime + 20, id: o.ID})
				case 1:
					src.pending = append(src.pending, scriptedCancel{at: o.PostTime + 900, id: o.ID})
				}
			}
			sort.SliceStable(src.pending, func(i, j int) bool { return src.pending[i].at < src.pending[j].at })
			return src, starts, cfg, dispatch.POOL{}
		}},
		{"scenario", func(cfg sim.Config) (sim.OrderSource, []geo.Point, sim.Config, sim.Dispatcher) {
			orders, starts, grid := peakHour(3000, 300, 40)
			cfg.Grid = grid
			cfg.Scenario = sim.ScenarioConfig{CancelRate: 0.2, DeclineProb: 0.15, TravelNoise: 0.25, Seed: 7}
			cfg.Observer = sim.ObserverFuncs{}
			return sim.NewSliceSource(orders), starts, cfg, &dispatch.IRG{}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var spans bytes.Buffer
			reg := obs.NewRegistry()
			src, starts, cfg, d := c.run(sim.Config{
				Delta: 3, TC: 1200, Horizon: 2 * 3600,
				Obs: sim.ObsConfig{Registry: reg, Tracer: obs.NewTracer(&spans)},
			})
			m, err := sim.NewWithSource(cfg, src, starts).Run(context.Background(), d)
			if err != nil {
				t.Fatal(err)
			}
			if m.TotalOrders == 0 || m.TotalOrders > 300 || m.Served == 0 {
				t.Fatalf("instance out of shape: %+v", m.Summary())
			}
			got := obsOutput(t, reg, spans.Bytes())
			path := filepath.Join("testdata", "obs_"+c.name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("%s diverges at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}
