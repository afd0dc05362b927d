package obs

import (
	"testing"
	"time"
)

// gaugeCollector builds a collector over one gauge and a single rule,
// returning a step function that sets the gauge and ticks one window.
func gaugeCollector(t *testing.T, rule Rule) (*Collector, func(v float64) State) {
	t.Helper()
	r := NewRegistry()
	g := r.GaugeVec("load", "load").With()
	c := NewCollector(CollectorConfig{Registry: r, Interval: time.Second, Windows: 8, Rules: []Rule{rule}})
	sec := int64(100)
	return c, func(v float64) State {
		g.Set(v)
		c.Tick(time.Unix(sec, 0))
		sec++
		return c.Health().Status
	}
}

func TestRuleBoundaryValueNeverFires(t *testing.T) {
	_, step := gaugeCollector(t, Rule{
		Name:   "ceiling",
		Metric: Selector{Family: "load", Stat: StatValue},
		Op:     ">", Threshold: 10,
	})
	// Exactly at the threshold, forever: strict comparison, no flap.
	for i := 0; i < 20; i++ {
		if st := step(10); st != StateOK {
			t.Fatalf("window %d: state %q at boundary value, want ok", i, st)
		}
	}
	if st := step(10.001); st != StateDegraded {
		t.Fatalf("state %q just past threshold, want degraded", st)
	}
}

func TestRuleHysteresisNoFlap(t *testing.T) {
	c, step := gaugeCollector(t, Rule{
		Name:   "ceiling",
		Metric: Selector{Family: "load", Stat: StatValue},
		Op:     ">", Threshold: 10, ClearThreshold: 5,
	})
	step(11) // fires
	if st := c.Health().Status; st != StateDegraded {
		t.Fatalf("state %q after breach, want degraded", st)
	}
	// Oscillating between 9 and 11: inside the hysteresis band, the
	// rule stays firing — no transition churn.
	for i := 0; i < 10; i++ {
		step(9)
		step(11)
	}
	h := c.Health()
	if h.Status != StateDegraded {
		t.Fatalf("state %q inside hysteresis band, want degraded", h.Status)
	}
	if len(h.Events) != 1 {
		t.Fatalf("events = %d, want exactly the initial firing (no flap)", len(h.Events))
	}
	// Only recovering past the clear threshold clears it.
	if st := step(5); st != StateOK {
		t.Fatalf("state %q at clear threshold, want ok", st)
	}
	h = c.Health()
	if len(h.Events) != 2 || h.Events[1].To != StateOK {
		t.Fatalf("events = %+v, want firing then clearing", h.Events)
	}
}

func TestRuleForAndClearStreaks(t *testing.T) {
	c, step := gaugeCollector(t, Rule{
		Name:   "ceiling",
		Metric: Selector{Family: "load", Stat: StatValue},
		Op:     ">", Threshold: 10, For: 3, Clear: 2,
		Severity: StateUnhealthy,
	})
	// Two breached windows then one ok: streak resets, never fires.
	step(11)
	step(11)
	if st := step(1); st != StateOK {
		t.Fatalf("state %q after broken streak, want ok", st)
	}
	// Three consecutive breaches fire at the configured severity.
	step(11)
	step(11)
	if st := step(11); st != StateUnhealthy {
		t.Fatalf("state %q after 3-window streak, want unhealthy", st)
	}
	// One recovered window is not enough to clear (Clear=2)...
	step(1)
	if st := step(11); st != StateUnhealthy {
		t.Fatalf("state %q after broken clear streak, want unhealthy", st)
	}
	step(1)
	if st := step(1); st != StateOK {
		t.Fatalf("state %q after 2-window recovery, want ok", st)
	}
	_ = c
}

func TestRuleMinSamplesFreezes(t *testing.T) {
	r := NewRegistry()
	ctr := r.Counter("errs_total", "errors")
	c := NewCollector(CollectorConfig{
		Registry: r, Interval: time.Second, Windows: 8,
		Rules: []Rule{{
			Name:   "error-rate",
			Metric: Selector{Family: "errs_total", Stat: StatRate},
			Op:     ">", Threshold: 0.5, Window: 4, MinSamples: 10,
		}},
	})
	sec := int64(100)
	tick := func() {
		c.Tick(time.Unix(sec, 0))
		sec++
	}
	ctr.Add(1)
	tick() // first sight
	ctr.Add(4)
	tick() // rate 4/s over a 2-retained-window span but only 4 samples: frozen
	if st := c.Health().Status; st != StateOK {
		t.Fatalf("state %q with insufficient samples, want frozen ok", st)
	}
	// Enough observations: now it may fire.
	ctr.Add(20)
	tick()
	if st := c.Health().Status; st != StateDegraded {
		t.Fatalf("state %q with sufficient samples over threshold, want degraded", st)
	}
	// Traffic stops entirely: windows hold zero new samples, the rule
	// freezes in its firing state rather than silently clearing.
	for i := 0; i < 6; i++ {
		tick()
	}
	if st := c.Health().Status; st != StateDegraded {
		t.Fatalf("state %q after traffic stopped, want frozen degraded", st)
	}
}

func TestRuleRatioDenominator(t *testing.T) {
	r := NewRegistry()
	term := r.CounterVec("term_total", "terminal orders", "outcome")
	served := term.With("served")
	reneged := term.With("reneged")
	c := NewCollector(CollectorConfig{
		Registry: r, Interval: time.Second, Windows: 8,
		Rules: []Rule{{
			Name:   "serve-floor",
			Metric: Selector{Family: "term_total", Labels: map[string]string{"outcome": "served"}, Stat: StatRate},
			Denom:  &Selector{Family: "term_total", Stat: StatRate},
			Op:     "<", Threshold: 0.5, Window: 4, MinSamples: 4,
			Severity: StateUnhealthy,
		}},
	})
	sec := int64(100)
	tick := func() {
		c.Tick(time.Unix(sec, 0))
		sec++
	}
	served.Add(1)
	reneged.Add(1)
	tick() // first sight
	served.Add(8)
	reneged.Add(2)
	tick() // 80% served
	if st := c.Health().Status; st != StateOK {
		t.Fatalf("state %q at 80%% serve rate, want ok", st)
	}
	served.Add(1)
	reneged.Add(9)
	tick() // windowed ratio (8+1)/(10+10) = 45% < 50%
	if st := c.Health().Status; st != StateUnhealthy {
		t.Fatalf("state %q at 45%% windowed serve rate, want unhealthy", st)
	}
	h := c.Health()
	if len(h.Rules) != 1 || h.Rules[0].Value == nil {
		t.Fatalf("rule status = %+v", h.Rules)
	}
	if v := *h.Rules[0].Value; v < 0.44 || v > 0.46 {
		t.Errorf("rule value = %v, want ~0.45", v)
	}
}

func TestHealthEventsCapped(t *testing.T) {
	c, step := gaugeCollector(t, Rule{
		Name:   "flappy",
		Metric: Selector{Family: "load", Stat: StatValue},
		Op:     ">", Threshold: 10,
	})
	for i := 0; i < maxHealthEvents+20; i++ {
		step(11) // fire
		step(1)  // clear
	}
	h := c.Health()
	if len(h.Events) != maxHealthEvents {
		t.Fatalf("events = %d, want capped at %d", len(h.Events), maxHealthEvents)
	}
}

func TestDefaultDispatchRules(t *testing.T) {
	rules := DefaultDispatchRules()
	if len(rules) != 3 {
		t.Fatalf("rules = %d, want 3", len(rules))
	}
	names := map[string]bool{}
	for _, r := range rules {
		names[r.Name] = true
		if r.Op != "<" && r.Op != ">" {
			t.Errorf("rule %s: bad op %q", r.Name, r.Op)
		}
		if r.MinSamples <= 0 || r.For <= 0 {
			t.Errorf("rule %s: must set MinSamples and For for anti-flap", r.Name)
		}
	}
	for _, want := range []string{"serve-rate-floor", "latency-p95-ceiling", "queue-depth-growth"} {
		if !names[want] {
			t.Errorf("missing default rule %s", want)
		}
	}
	// The stock set over an idle registry stays ok (insufficient data
	// everywhere — absent families must not fire anything).
	r := NewRegistry()
	c := NewCollector(CollectorConfig{Registry: r, Interval: time.Second, Windows: 8, Rules: rules})
	for i := int64(0); i < 10; i++ {
		c.Tick(time.Unix(100+i, 0))
	}
	if st := c.Health().Status; st != StateOK {
		t.Fatalf("idle status = %q, want ok", st)
	}
}

func TestStateWorse(t *testing.T) {
	if s := StateOK.Worse(StateDegraded); s != StateDegraded {
		t.Errorf("worse(ok,degraded) = %q", s)
	}
	if s := StateUnhealthy.Worse(StateDegraded); s != StateUnhealthy {
		t.Errorf("worse(unhealthy,degraded) = %q", s)
	}
}
