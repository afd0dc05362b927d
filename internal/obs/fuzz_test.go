package obs

import (
	"strings"
	"testing"
)

// FuzzParseText feeds ParseText arbitrary expositions: it must reject
// or accept without panicking, and whatever it accepts holds only
// well-formed sample names filed under an existing family.
func FuzzParseText(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("fuzz_total", "A counter.").Add(3)
	reg.GaugeVec("fuzz_depth", "A gauge.").With().Set(-1.5)
	reg.CounterVec("fuzz_outcomes_total", "A labelled counter.", "outcome").With(`a "quoted\" value`).Inc()
	reg.Histogram("fuzz_seconds", "A histogram.", LatencyBuckets).Observe(0.02)
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		b.String(),
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum NaN\nh_count 1\n",
		"x{a=\"b\",} 1",
		"x{a=\"\\",
		"x{=\"\"} 1",
		"{} 1",
		"x 1 2 3",
		"x\t+Inf",
		"# TYPE",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		fams, err := ParseText(strings.NewReader(text))
		if err != nil {
			return
		}
		for name, fam := range fams {
			if fam == nil || fam.Name != name {
				t.Fatalf("family %q filed as %+v", name, fam)
			}
			for _, s := range fam.Samples {
				if !validMetricName(s.Name) || !strings.HasPrefix(s.Name, name) {
					t.Fatalf("family %q holds sample %q", name, s.Name)
				}
			}
		}
	})
}
