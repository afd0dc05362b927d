package predict

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mrvd/internal/geo"
	"mrvd/internal/workload"
)

// smallCity keeps predictor tests fast: a 4x4 grid city.
func smallCity() *workload.City {
	return workload.NewCity(workload.CityConfig{
		Grid:         geo.NewGrid(geo.NYCBBox, 4, 4),
		OrdersPerDay: 8000,
		Seed:         7,
	})
}

// smallHistory caches a shared history across tests.
var sharedHist *History

func testHistory(t *testing.T) *History {
	t.Helper()
	if sharedHist == nil {
		sharedHist = GenerateHistory(smallCity(), MinLookbackDays+14, 1800, 3)
	}
	return sharedHist
}

func TestHistoryAtBoundaries(t *testing.T) {
	h := testHistory(t)
	if got := h.At(-1, 0, 0); got != 0 {
		t.Errorf("At(day=-1) = %v, want 0", got)
	}
	if got := h.At(0, -3, 0); got != 0 {
		t.Errorf("At underflowing to day -1 = %v, want 0", got)
	}
	// Slot underflow wraps to the previous day.
	want := float64(h.Counts[2][h.SlotsPerDay-1][5])
	if got := h.At(3, -1, 5); got != want {
		t.Errorf("At(3,-1) = %v, want %v (last slot of day 2)", got, want)
	}
}

func TestHAPredictsMeanOfLags(t *testing.T) {
	h := testHistory(t)
	ha := HA{}
	day, slot, region := 23, 20, 7
	got := ha.Predict(h, day, slot, region)
	sum := 0.0
	for i := 1; i <= NumCloseness; i++ {
		sum += h.At(day, slot-i, region)
	}
	if math.Abs(got-sum/NumCloseness) > 1e-12 {
		t.Errorf("HA = %v, want %v", got, sum/NumCloseness)
	}
}

func TestLRTrainsAndBeatsUntrained(t *testing.T) {
	h := testHistory(t)
	lr := &LR{}
	if got := lr.Predict(h, 25, 5, 0); got != 0 {
		t.Errorf("untrained LR predicts %v, want 0", got)
	}
	if err := lr.Train(h, h.Days()-7); err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(lr, h, h.Days()-7, h.Days())
	if err != nil {
		t.Fatal(err)
	}
	if res.RelativeRMSE <= 0 || res.RelativeRMSE > 100 {
		t.Errorf("LR relative RMSE = %v%%", res.RelativeRMSE)
	}
}

func TestLRTrainErrorsWithoutHistory(t *testing.T) {
	h := &History{SlotsPerDay: 4, NumRegions: 2}
	if err := (&LR{}).Train(h, 0); err == nil {
		t.Error("LR trained on empty history")
	}
}

func TestGBRTTrainsAndPredictsNonNegative(t *testing.T) {
	h := testHistory(t)
	g := &GBRT{Trees: 20, MaxRows: 20000, Seed: 5}
	if err := g.Train(h, h.Days()-7); err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < h.SlotsPerDay; slot += 7 {
		for region := 0; region < h.NumRegions; region += 3 {
			if v := g.Predict(h, h.Days()-1, slot, region); v < 0 {
				t.Fatalf("negative prediction %v", v)
			}
		}
	}
}

func TestGBRTErrorsWithoutHistory(t *testing.T) {
	h := &History{SlotsPerDay: 4, NumRegions: 2}
	if err := (&GBRT{}).Train(h, 0); err == nil {
		t.Error("GBRT trained on empty history")
	}
}

func TestSTNetTrains(t *testing.T) {
	h := testHistory(t)
	s := &STNet{}
	if err := s.Train(h, h.Days()-7); err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(s, h, h.Days()-7, h.Days())
	if err != nil {
		t.Fatal(err)
	}
	if res.RelativeRMSE <= 0 || math.IsNaN(res.RelativeRMSE) {
		t.Errorf("STNet RMSE = %v", res.RelativeRMSE)
	}
}

func TestAccuracyOrderingMatchesPaper(t *testing.T) {
	// Table 6's ordering: DeepST(STNet) < GBRT < LR < HA in RMSE. GBRT
	// vs LR can be close on a linear-ish workload, so assert the robust
	// parts: STNet best, HA worst.
	h := testHistory(t)
	trainDays := h.Days() - 7
	results := map[string]float64{}
	for _, m := range All(11) {
		if err := m.Train(h, trainDays); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		res, err := Evaluate(m, h, trainDays, h.Days())
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		results[m.Name()] = res.RelativeRMSE
		t.Logf("%s: %.2f%%", m.Name(), res.RelativeRMSE)
	}
	if results["STNet(DeepST)"] >= results["HA"] {
		t.Errorf("STNet (%.2f%%) should beat HA (%.2f%%)",
			results["STNet(DeepST)"], results["HA"])
	}
	if results["STNet(DeepST)"] >= results["LR"] {
		t.Errorf("STNet (%.2f%%) should beat LR (%.2f%%)",
			results["STNet(DeepST)"], results["LR"])
	}
	if results["LR"] >= results["HA"] {
		t.Errorf("LR (%.2f%%) should beat HA (%.2f%%)", results["LR"], results["HA"])
	}
}

func TestEvaluateErrors(t *testing.T) {
	h := testHistory(t)
	if _, err := Evaluate(HA{}, h, 0, 5); err == nil {
		t.Error("evaluation without lookback accepted")
	}
	if _, err := Evaluate(HA{}, h, h.Days()+5, h.Days()+9); err == nil {
		t.Error("empty window accepted")
	}
}

func TestGenerateHistoryShape(t *testing.T) {
	h := GenerateHistory(smallCity(), 3, 3600, 1)
	if h.Days() != 3 || h.SlotsPerDay != 24 || h.NumRegions != 16 {
		t.Fatalf("history shape %d days %d slots %d regions",
			h.Days(), h.SlotsPerDay, h.NumRegions)
	}
	if len(h.Meta) != h.Days() {
		t.Fatalf("%d meta-days for %d count-days", len(h.Meta), h.Days())
	}
	for d, day := range h.Counts {
		if len(day) != h.SlotsPerDay {
			t.Fatalf("day %d has %d slots, want %d", d, len(day), h.SlotsPerDay)
		}
		for s, slot := range day {
			if len(slot) != h.NumRegions {
				t.Fatalf("day %d slot %d has %d regions, want %d", d, s, len(slot), h.NumRegions)
			}
		}
	}
}

func TestPredictorsOnlyUsePastData(t *testing.T) {
	// Mutating future cells must not change predictions for earlier slots.
	h := testHistory(t)
	day, slot, region := h.Days()-2, 10, 4
	models := All(13)
	for _, m := range models {
		if err := m.Train(h, day); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
	}
	before := make([]float64, len(models))
	for i, m := range models {
		before[i] = m.Predict(h, day, slot, region)
	}
	// Corrupt strictly-future data.
	saved := h.Counts[day][slot][region]
	h.Counts[day][slot][region] = saved + 1000
	h.Counts[h.Days()-1][0][region] += 999
	for i, m := range models {
		if got := m.Predict(h, day, slot, region); got != before[i] {
			t.Errorf("%s peeked at future data: %v -> %v", m.Name(), before[i], got)
		}
	}
	h.Counts[day][slot][region] = saved
	h.Counts[h.Days()-1][0][region] -= 999
}

// TestGenerateHistoryPinned digests GenerateHistory's counts, cell by
// cell, against values recorded while every draw still went through
// stats.Poisson one minute at a time: the small city's rates stay under
// 30 (Knuth, with its early exit), the dense one's go past it (PTRS),
// and the 16x16 city is the benchmark's day_gc city over a few days.
func TestGenerateHistoryPinned(t *testing.T) {
	dense := workload.NewCity(workload.CityConfig{
		Grid: geo.NewGrid(geo.NYCBBox, 4, 4), OrdersPerDay: 3_000_000, Seed: 11,
	})
	paper := workload.NewCity(workload.CityConfig{OrdersPerDay: 70000, Seed: 31})
	for _, c := range []struct {
		name string
		h    *History
		want uint64
	}{
		{"small", GenerateHistory(smallCity(), 6, 1800, 3), 0xcffbfc7cc404f0c4},
		{"dense", GenerateHistory(dense, 2, 900, 5), 0x4d8e59a2de2de3fa},
		{"paper", GenerateHistory(paper, 3, 1800, 1001), 0x306b7f3a067078a2},
	} {
		f := fnv.New64a()
		var cell [8]byte
		for _, day := range c.h.Counts {
			for _, slot := range day {
				for _, n := range slot {
					binary.LittleEndian.PutUint64(cell[:], uint64(n))
					f.Write(cell[:])
				}
			}
		}
		if got := f.Sum64(); got != c.want {
			t.Errorf("%s history digests to %#x, want %#x", c.name, got, c.want)
		}
	}
}
