package obs

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// State is a health state — a rule's and the process's overall.
type State string

// Health states, ordered ok < degraded < unhealthy.
const (
	StateOK        State = "ok"
	StateDegraded  State = "degraded"
	StateUnhealthy State = "unhealthy"
)

// rank orders states by badness for worst-of aggregation.
func (s State) rank() int {
	switch s {
	case StateUnhealthy:
		return 2
	case StateDegraded:
		return 1
	}
	return 0
}

// Worse returns the worse of two states.
func (s State) Worse(o State) State {
	if o.rank() > s.rank() {
		return o
	}
	return s
}

// Selector names a windowed value derived from one metric family.
type Selector struct {
	// Family is the metric family name (e.g. "mrvd_orders_terminal_total").
	Family string
	// Labels restricts matching samples to those carrying every listed
	// pair; nil matches all of the family's samples.
	Labels map[string]string
	// Stat is the derivation: StatRate (counter), StatValue/StatDelta
	// (gauge), or StatMean/StatP50/StatP95/StatP99 (histogram). Several
	// matching samples combine: counter and gauge values are summed,
	// and for quantiles and means the windowed histograms are merged
	// before deriving.
	Stat string
}

// String renders the selector for rule status displays.
func (s Selector) String() string {
	var b strings.Builder
	b.WriteString(s.Stat)
	b.WriteByte('(')
	b.WriteString(s.Family)
	if len(s.Labels) > 0 {
		names := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			names = append(names, k)
		}
		slices.Sort(names) // deterministic order
		b.WriteByte('{')
		for i, k := range names {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%q", k, s.Labels[k])
		}
		b.WriteByte('}')
	}
	b.WriteByte(')')
	return b.String()
}

// Rule is one declarative SLO check, evaluated once per collected
// window over the collector's rings.
type Rule struct {
	// Name identifies the rule in health payloads and events.
	Name string
	// Metric selects the evaluated value; Denom, when set, divides it
	// (windowed ratio — e.g. served rate over total terminal rate).
	Metric Selector
	Denom  *Selector
	// Op is "<" (fire when value drops below Threshold — a floor) or
	// ">" (fire when it rises above — a ceiling). Comparison is strict:
	// a value exactly at the threshold never fires.
	Op        string
	Threshold float64
	// ClearThreshold widens the hysteresis band: a firing rule clears
	// only once the value recovers past it (>= for floors, <= for
	// ceilings). Zero means Threshold itself.
	ClearThreshold float64
	// Window is how many collected windows each evaluation aggregates
	// (default 1).
	Window int
	// MinSamples is the minimum underlying observation count in the
	// aggregated window (counter deltas, histogram counts, or the
	// denominator's count for ratios; retained windows for gauges).
	// Below it the evaluation is insufficient and the rule freezes in
	// its current state — a near-empty window neither fires nor clears.
	MinSamples int
	// For is how many consecutive breached evaluations fire the rule;
	// Clear how many consecutive recovered ones clear it (default: 1
	// and For respectively). Together with ClearThreshold this is the
	// anti-flap hysteresis.
	For   int
	Clear int
	// Severity is the state a firing rule contributes (default
	// StateDegraded).
	Severity State
}

func (r Rule) forWindows() int {
	if r.For <= 0 {
		return 1
	}
	return r.For
}

func (r Rule) clearWindows() int {
	if r.Clear <= 0 {
		return r.forWindows()
	}
	return r.Clear
}

func (r Rule) severity() State {
	if r.Severity == StateUnhealthy {
		return StateUnhealthy
	}
	return StateDegraded
}

func (r Rule) window() int {
	if r.Window <= 0 {
		return 1
	}
	return r.Window
}

// breached reports a strict threshold violation.
func (r Rule) breached(v float64) bool {
	if r.Op == "<" {
		return v < r.Threshold
	}
	return v > r.Threshold
}

// recovered reports the value crossing back past the clear threshold.
func (r Rule) recovered(v float64) bool {
	clear := r.ClearThreshold
	if clear == 0 {
		clear = r.Threshold
	}
	if r.Op == "<" {
		return v >= clear
	}
	return v <= clear
}

// RuleStatus is one rule's current evaluation state.
type RuleStatus struct {
	Name     string `json:"name"`
	State    State  `json:"state"`
	Severity State  `json:"severity"`
	// Value is the rule's last evaluated value; null until the first
	// sufficient evaluation.
	Value     *float64 `json:"value,omitempty"`
	Threshold float64  `json:"threshold"`
	Op        string   `json:"op"`
	Metric    string   `json:"metric"`
	// Since is the wall time (unix seconds) of the last state
	// transition, zero while the rule has never transitioned.
	Since float64 `json:"since,omitempty"`
}

// HealthEvent records one rule transition (firing or clearing).
type HealthEvent struct {
	Rule  string  `json:"rule"`
	From  State   `json:"from"`
	To    State   `json:"to"`
	At    float64 `json:"at"` // unix seconds
	Value float64 `json:"value"`
}

// Health is the process's self-reported health: the worst firing
// rule's state, every rule's status, and recent transitions. It is
// the enriched /healthz payload.
type Health struct {
	Status State         `json:"status"`
	Rules  []RuleStatus  `json:"rules,omitempty"`
	Events []HealthEvent `json:"events,omitempty"`
}

// ruleState is a rule's evaluation state inside the collector.
type ruleState struct {
	state     State
	breachRun int
	okRun     int
	since     float64
	lastValue float64
	hasValue  bool
}

// evaluateRules runs every rule against the freshly ingested window
// and returns the transitions it fired. Caller holds c.mu.
func (c *Collector) evaluateRules(wall float64) []HealthEvent {
	var transitions []HealthEvent
	for i := range c.cfg.Rules {
		r := &c.cfg.Rules[i]
		st := &c.rules[i]
		v, samples, ok := c.evalRule(r)
		if ok {
			st.lastValue, st.hasValue = v, true
		}
		if !ok || samples < int64(r.MinSamples) {
			// Insufficient data: freeze. Neither streak advances, so a
			// quiet spell cannot fire a floor nor clear a real breach.
			continue
		}
		if st.state == StateOK {
			if r.breached(v) {
				st.breachRun++
				st.okRun = 0
				if st.breachRun >= r.forWindows() {
					transitions = append(transitions, c.transition(st, r.Name, r.severity(), wall, v))
				}
			} else {
				st.breachRun = 0
			}
		} else {
			if r.recovered(v) {
				st.okRun++
				st.breachRun = 0
				if st.okRun >= r.clearWindows() {
					transitions = append(transitions, c.transition(st, r.Name, StateOK, wall, v))
				}
			} else {
				st.okRun = 0
			}
		}
	}
	return transitions
}

// transition flips a rule's state, records the event, and returns it.
func (c *Collector) transition(st *ruleState, rule string, to State, wall, v float64) HealthEvent {
	ev := HealthEvent{Rule: rule, From: st.state, To: to, At: wall, Value: v}
	st.state = to
	st.since = wall
	st.breachRun, st.okRun = 0, 0
	c.events = append(c.events, ev)
	if len(c.events) > maxHealthEvents {
		c.events = c.events[len(c.events)-maxHealthEvents:]
	}
	return ev
}

// evalRule computes a rule's current value and its underlying sample
// count; ok is false when the selectors match no data.
func (c *Collector) evalRule(r *Rule) (v float64, samples int64, ok bool) {
	w := r.window()
	num, n, ok := c.evalSelector(r.Metric, w)
	if !ok {
		return 0, 0, false
	}
	samples = n
	v = num
	if r.Denom != nil {
		den, dn, dok := c.evalSelector(*r.Denom, w)
		if !dok || den == 0 {
			return 0, 0, false
		}
		v = num / den
		samples = dn
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, 0, false
	}
	return v, samples, true
}

// evalSelector derives one windowed value. Caller holds c.mu.
func (c *Collector) evalSelector(sel Selector, w int) (v float64, samples int64, ok bool) {
	switch sel.Stat {
	case StatMean, StatP50, StatP95, StatP99:
		return c.evalHistSelector(sel, w)
	default:
		return c.evalScalarSelector(sel, w)
	}
}

func quantileFor(stat string) float64 {
	switch stat {
	case StatP50:
		return 0.50
	case StatP95:
		return 0.95
	case StatP99:
		return 0.99
	}
	return math.NaN()
}

func (c *Collector) evalHistSelector(sel Selector, w int) (float64, int64, bool) {
	var merged HistogramSnapshot
	for _, h := range c.hists {
		if h.family == sel.Family && labelsMatch(sel.Labels, h.labelNames, h.labels) {
			merged.Merge(h.window(c, w))
		}
	}
	if merged.Count == 0 {
		return 0, 0, false
	}
	if sel.Stat == StatMean {
		return merged.Mean(), merged.Count, true
	}
	return merged.Quantile(quantileFor(sel.Stat)), merged.Count, true
}

func (c *Collector) evalScalarSelector(sel Selector, w int) (float64, int64, bool) {
	n, at := c.ringOrder()
	if w > n {
		w = n
	}
	if w == 0 {
		return 0, 0, false
	}
	var value, totalObs float64
	var found bool
	var windowsWithData int64
	for _, s := range c.scalars {
		if s.family != sel.Family || !labelsMatch(sel.Labels, s.labelNames, s.labels) {
			continue
		}
		switch sel.Stat {
		case StatDelta:
			// Gauge change across the window span: newest minus oldest
			// retained value inside the last w windows.
			newest, oldest := math.NaN(), math.NaN()
			for age := 0; age < w; age++ {
				x := s.buf[at(age)]
				if math.IsNaN(x) {
					continue
				}
				if math.IsNaN(newest) {
					newest = x
				}
				oldest = x
				windowsWithData++
			}
			if math.IsNaN(newest) {
				continue
			}
			value += newest - oldest
			found = true
		case StatValue:
			for age := 0; age < w; age++ {
				if x := s.buf[at(age)]; !math.IsNaN(x) {
					value += x
					found = true
					windowsWithData++
					break
				}
			}
		default: // StatRate
			var sum float64
			var any bool
			for age := 0; age < w; age++ {
				if x := s.buf[at(age)]; !math.IsNaN(x) {
					sum += x
					any = true
					windowsWithData++
				}
			}
			if !any {
				continue
			}
			value += sum / float64(w)
			found = true
			totalObs += sum * c.interval // summed deltas = observation count
		}
	}
	if !found {
		return 0, 0, false
	}
	samples := windowsWithData
	if sel.Stat == StatRate {
		samples = int64(math.Round(totalObs))
	}
	return value, samples, true
}

// labelsMatch reports whether the sample's label pairs carry every
// selector-required pair.
func labelsMatch(want map[string]string, names, values []string) bool {
	if len(want) == 0 {
		return true
	}
	for k, v := range want {
		found := false
		for i, n := range names {
			if n == k {
				found = i < len(values) && values[i] == v
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Health snapshots the rule states and recent transitions.
func (c *Collector) Health() Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.healthLocked()
}

func (c *Collector) healthLocked() Health {
	h := Health{Status: c.worstLocked()}
	for i := range c.cfg.Rules {
		r := &c.cfg.Rules[i]
		st := &c.rules[i]
		rs := RuleStatus{
			Name: r.Name, State: st.state, Severity: r.severity(),
			Threshold: r.Threshold, Op: r.Op, Metric: r.Metric.String(),
			Since: st.since,
		}
		if st.hasValue {
			v := st.lastValue
			rs.Value = &v
		}
		h.Rules = append(h.Rules, rs)
	}
	h.Events = append(h.Events, c.events...)
	return h
}

// worstLocked folds the rule states into the overall status.
func (c *Collector) worstLocked() State {
	overall := StateOK
	for i := range c.rules {
		overall = overall.Worse(c.rules[i].state)
	}
	return overall
}

// DefaultDispatchRules is the stock SLO rule set for a dispatch
// session collected at ~1s windows, covering the three health
// questions the serving layer already measures:
//
//   - serve-rate floor: of the orders reaching a terminal state over
//     the last 30 windows, fewer than half served ⇒ unhealthy. Needs
//     20 terminal orders, breach 3 windows running, and clears only
//     back above 55% — so a single bad window, or an idle lull, never
//     flaps it.
//   - submit→terminal p95 ceiling: the gateway's windowed p95 latency
//     above 30s ⇒ degraded (clears below 20s).
//   - queue-depth growth: the waiting set growing by more than 200
//     riders across 30 windows ⇒ degraded — demand is outrunning the
//     fleet.
//
// Thresholds are deliberately loose defaults for a paced real-time
// session; pass a custom set to CollectorConfig.Rules to tighten.
func DefaultDispatchRules() []Rule {
	return []Rule{
		{
			Name:   "serve-rate-floor",
			Metric: Selector{Family: "mrvd_orders_terminal_total", Labels: map[string]string{"outcome": OutcomeServed}, Stat: StatRate},
			Denom:  &Selector{Family: "mrvd_orders_terminal_total", Stat: StatRate},
			Op:     "<", Threshold: 0.5, ClearThreshold: 0.55,
			Window: 30, MinSamples: 20, For: 3, Clear: 3,
			Severity: StateUnhealthy,
		},
		{
			Name:   "latency-p95-ceiling",
			Metric: Selector{Family: "mrvd_submit_terminal_seconds", Stat: StatP95},
			Op:     ">", Threshold: 30, ClearThreshold: 20,
			Window: 30, MinSamples: 20, For: 3, Clear: 3,
			Severity: StateDegraded,
		},
		{
			Name:   "queue-depth-growth",
			Metric: Selector{Family: "mrvd_queue_depth", Stat: StatDelta},
			Op:     ">", Threshold: 200, ClearThreshold: 50,
			Window: 30, MinSamples: 2, For: 3, Clear: 3,
			Severity: StateDegraded,
		},
	}
}
