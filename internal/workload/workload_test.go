package workload

import (
	"math"
	"math/rand"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/stats"
)

func testCity() *City {
	return NewCity(CityConfig{OrdersPerDay: 5000, Seed: 42})
}

func TestPeriodOf(t *testing.T) {
	cases := []struct {
		hour float64
		want Period
	}{
		{3, Night}, {6, Morning}, {10.9, Morning}, {11, Midday},
		{15.9, Midday}, {16, Evening}, {21.9, Evening}, {22, Night}, {23.5, Night},
	}
	for _, c := range cases {
		if got := PeriodOf(c.hour * 3600); got != c.want {
			t.Errorf("PeriodOf(%vh) = %v, want %v", c.hour, got, c.want)
		}
	}
}

func TestGenerateDayBasicShape(t *testing.T) {
	c := testCity()
	rng := rand.New(rand.NewSource(1))
	orders := c.GenerateDay(0, rng)
	factor := c.DayMeta(0).Factor
	want := 5000 * factor
	if math.Abs(float64(len(orders))-want)/want > 0.10 {
		t.Errorf("generated %d orders, want ~%.0f", len(orders), want)
	}
	grid := c.Grid()
	for i, o := range orders {
		if err := o.Valid(); err != nil {
			t.Fatalf("order %d invalid: %v", i, err)
		}
		if grid.Region(o.Pickup) == geo.InvalidRegion {
			t.Fatalf("order %d pickup outside grid", i)
		}
		if grid.Region(o.Dropoff) == geo.InvalidRegion {
			t.Fatalf("order %d dropoff outside grid", i)
		}
		pat := o.Deadline - o.PostTime
		if pat < 121 || pat > 130 {
			t.Fatalf("order %d patience %v outside tau+[1,10]", i, pat)
		}
		if i > 0 && orders[i].PostTime < orders[i-1].PostTime {
			t.Fatal("orders not sorted by post time")
		}
	}
}

func TestGenerateDayDeterministic(t *testing.T) {
	c := testCity()
	a := c.GenerateDay(3, rand.New(rand.NewSource(9)))
	b := c.GenerateDay(3, rand.New(rand.NewSource(9)))
	if len(a) != len(b) {
		t.Fatalf("same seed different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed different orders")
		}
	}
}

func TestDiurnalCurvePeaks(t *testing.T) {
	c := testCity()
	rng := rand.New(rand.NewSource(2))
	orders := c.GenerateDay(0, rng)
	perHour := make([]int, 24)
	for _, o := range orders {
		perHour[int(o.PostTime/3600)%24]++
	}
	// Evening peak (18-19h) must beat the 4 AM trough by a wide margin.
	if perHour[18] < 4*perHour[4] {
		t.Errorf("no evening peak: 18h=%d 4h=%d", perHour[18], perHour[4])
	}
	// Morning commute (8h) beats pre-dawn (5h).
	if perHour[8] <= perHour[5] {
		t.Errorf("no morning peak: 8h=%d 5h=%d", perHour[8], perHour[5])
	}
}

func TestHotspotConcentration(t *testing.T) {
	// Midday pickups concentrate near the business core; the top regions
	// must hold far more than a uniform share.
	c := testCity()
	rng := rand.New(rand.NewSource(3))
	orders := c.GenerateDay(0, rng)
	grid := c.Grid()
	counts := make([]int, grid.NumRegions())
	total := 0
	for _, o := range orders {
		if PeriodOf(o.PostTime) == Midday {
			counts[grid.Region(o.Pickup)]++
			total++
		}
	}
	max := 0
	for _, ct := range counts {
		if ct > max {
			max = ct
		}
	}
	uniform := float64(total) / float64(grid.NumRegions())
	if float64(max) < 4*uniform {
		t.Errorf("demand too flat: max region %d vs uniform %.1f", max, uniform)
	}
}

func TestDayMetaDeterministicAndSane(t *testing.T) {
	c := testCity()
	m1 := c.DayMeta(17)
	m2 := c.DayMeta(17)
	if m1 != m2 {
		t.Error("DayMeta not deterministic")
	}
	if m1.DOW < 0 || m1.DOW > 6 {
		t.Errorf("DOW = %d", m1.DOW)
	}
	if m1.Factor <= 0 || m1.Factor > 2 {
		t.Errorf("Factor = %v", m1.Factor)
	}
	// Weekends are quieter on average across many days.
	wkdaySum, wkdayN, wkendSum, wkendN := 0.0, 0, 0.0, 0
	for d := 0; d < 140; d++ {
		m := c.DayMeta(d)
		if m.DOW >= 5 {
			wkendSum += m.Factor
			wkendN++
		} else {
			wkdaySum += m.Factor
			wkdayN++
		}
	}
	if wkendSum/float64(wkendN) >= wkdaySum/float64(wkdayN) {
		t.Error("weekend demand factor not below weekday")
	}
}

func TestGenerateDayCountsConsistentWithIntensity(t *testing.T) {
	c := testCity()
	rng := rand.New(rand.NewSource(4))
	counts := c.GenerateDayCounts(0, 1800, rng)
	if len(counts) != 48 {
		t.Fatalf("slots = %d, want 48", len(counts))
	}
	expected := c.ExpectedDayCounts(0, 1800)
	// Aggregate comparison: totals should match within Poisson noise.
	gotTotal, wantTotal := 0.0, 0.0
	for s := range counts {
		for r := range counts[s] {
			gotTotal += float64(counts[s][r])
			wantTotal += expected[s][r]
		}
	}
	if math.Abs(gotTotal-wantTotal)/wantTotal > 0.05 {
		t.Errorf("counts total %.0f vs expected %.0f", gotTotal, wantTotal)
	}
}

func TestExpectedDayCountsMatchOrdersPerDay(t *testing.T) {
	c := testCity()
	expected := c.ExpectedDayCounts(0, 1800)
	total := 0.0
	for _, slot := range expected {
		for _, v := range slot {
			total += v
		}
	}
	want := 5000 * c.DayMeta(0).Factor
	if math.Abs(total-want)/want > 0.001 {
		t.Errorf("expected total %.1f, want %.1f", total, want)
	}
}

func TestInitialDrivers(t *testing.T) {
	c := testCity()
	rng := rand.New(rand.NewSource(5))
	orders := c.GenerateDay(0, rng)
	drivers := c.InitialDrivers(300, orders, rng)
	if len(drivers) != 300 {
		t.Fatalf("got %d drivers", len(drivers))
	}
	grid := c.Grid()
	for _, p := range drivers {
		if grid.Region(p) == geo.InvalidRegion {
			t.Fatal("driver initialized outside grid")
		}
	}
	// Fallback path with no reference orders.
	drivers = c.InitialDrivers(50, nil, rng)
	if len(drivers) != 50 {
		t.Fatalf("fallback produced %d drivers", len(drivers))
	}
	for _, p := range drivers {
		if grid.Region(p) == geo.InvalidRegion {
			t.Fatal("fallback driver outside grid")
		}
	}
}

func TestPerMinuteCountsArePoisson(t *testing.T) {
	// The core assumption of the paper (Appendix B): per-minute arrival
	// counts in a fixed region and time window pass a chi-square Poisson
	// goodness-of-fit test.
	c := NewCity(CityConfig{OrdersPerDay: 200000, Seed: 11})
	grid := c.Grid()
	region := int(grid.Region(geo.Point{Lng: -73.98, Lat: 40.73})) // business core
	rng := rand.New(rand.NewSource(6))
	var samples []int
	for day := 0; day < 21; day++ {
		// Hold the day factor fixed by sampling the same day index, as
		// the paper samples the same clock window across weekdays.
		samples = append(samples, c.PerMinuteCounts(0, 8*60, 10, region, rng)...)
	}
	res, err := stats.ChiSquarePoissonTest(samples, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject {
		t.Errorf("order counts rejected as Poisson: %v", res)
	}
}

func TestIntensityPositiveEverywhere(t *testing.T) {
	c := testCity()
	for _, minute := range []int{0, 300, 480, 720, 1080, 1380} {
		for _, region := range []int{0, 100, 200, 255} {
			if c.Intensity(0, minute, region) <= 0 {
				t.Fatalf("zero intensity at minute %d region %d", minute, region)
			}
		}
	}
}

func TestSampleDestDistanceDecay(t *testing.T) {
	c := testCity()
	rng := rand.New(rand.NewSource(7))
	grid := c.Grid()
	src := int(grid.Region(geo.NYCBBox.Center()))
	srcPt := grid.Center(geo.RegionID(src))
	// Mean trip distance should be on the order of the decay scale, not
	// the city diameter.
	sum := 0.0
	const n = 2000
	for i := 0; i < n; i++ {
		dst := c.sampleDest(rng, Midday, src)
		sum += geo.Equirect(srcPt, grid.Center(geo.RegionID(dst)))
	}
	mean := sum / n
	if mean < 500 || mean > 12000 {
		t.Errorf("mean trip distance %.0f m implausible", mean)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := NewCity(CityConfig{})
	cfg := c.cfg
	if cfg.Grid == nil || cfg.OrdersPerDay <= 0 || cfg.BaseWaitSeconds <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.Grid.NumRegions() != 256 {
		t.Errorf("default grid has %d regions, want 256", cfg.Grid.NumRegions())
	}
}
