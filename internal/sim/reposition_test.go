package sim

import (
	"context"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/trace"
)

// TestRepositionAfterDefaults: an unset RepositionAfter resolves to
// 300 s in the config's defaults — the resolved config internal/shard
// hands its engines too — and the engine first offers an idle driver
// to the Repositioner once it has waited that long.
func TestRepositionAfterDefaults(t *testing.T) {
	if got := (Config{}).WithDefaults().RepositionAfter; got != 300 {
		t.Fatalf("default RepositionAfter = %v, want 300", got)
	}
	cfg := simpleConfig()
	first := -1.0
	cfg.Repositioner = repositionFunc(func(ctx *Context) {
		if first < 0 {
			first = ctx.Now
		}
	})
	if _, err := New(cfg, nil, []geo.Point{center()}).Run(context.Background(), noop{}); err != nil {
		t.Fatal(err)
	}
	if first < 300 || first >= 300+cfg.Delta {
		t.Errorf("driver idle since t=0 first offered at t=%v, want the first batch at or past 300", first)
	}
}

// repositionFunc observes every offer and declines it.
type repositionFunc func(ctx *Context)

func (f repositionFunc) Target(ctx *Context, d *Driver, region geo.RegionID) (geo.Point, bool) {
	f(ctx)
	return geo.Point{}, false
}

// sendEast repositions any idle driver 2km east, once.
type sendEast struct{ moved int }

func (s *sendEast) Target(ctx *Context, d *Driver, region geo.RegionID) (geo.Point, bool) {
	if s.moved > 0 {
		return geo.Point{}, false
	}
	s.moved++
	return offset(d.Pos, 2000), true
}

func TestRepositionMovesIdleDriver(t *testing.T) {
	pickup := center()
	cfg := simpleConfig()
	policy := &sendEast{}
	cfg.Repositioner = policy
	cfg.RepositionAfter = 60
	e := New(cfg, nil, []geo.Point{pickup})
	if _, err := e.Run(context.Background(), noop{}); err != nil {
		t.Fatal(err)
	}
	if policy.moved != 1 {
		t.Fatalf("policy consulted %d times, want 1", policy.moved)
	}
	drv := e.Drivers()[0]
	if got := geo.Equirect(drv.Pos, offset(pickup, 2000)); got > 1 {
		t.Errorf("driver %fm from reposition target", got)
	}
	if drv.State != Available {
		t.Errorf("driver state %v after cruise, want Available", drv.State)
	}
	if drv.Served != 0 {
		t.Error("cruise counted as service")
	}
}

func TestRepositionedDriverServesAtTarget(t *testing.T) {
	pickup := center()
	target := offset(pickup, 2000)
	orders := []trace.Order{
		// Near the reposition target, posted after the cruise completes;
		// too far from the origin for a driver that stayed put
		// (patience 60s reaches ~660m at 11 m/s).
		{ID: 0, PostTime: 600, Pickup: target, Dropoff: offset(target, 900), Deadline: 660},
	}
	run := func(repo Repositioner) *Metrics {
		cfg := simpleConfig()
		cfg.Repositioner = repo
		cfg.RepositionAfter = 60
		m, err := New(cfg, orders, []geo.Point{pickup}).Run(context.Background(), takeAll{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	without := run(nil)
	with := run(&sendEast{})
	if without.Served != 0 {
		t.Fatalf("stationary driver served %d, want 0", without.Served)
	}
	if with.Served != 1 {
		t.Fatalf("repositioned driver served %d, want 1", with.Served)
	}
}
