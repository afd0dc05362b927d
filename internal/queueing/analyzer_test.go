package queueing

import (
	"math"
	"math/rand"
	"testing"
)

func newTestAnalyzer(tc float64) *Analyzer {
	return NewAnalyzer(New(Config{Beta: 0.05}), 4, tc)
}

// sliceRegions is a Regions over a slice of snapshots that counts the
// reads of each region.
type sliceRegions struct {
	states []RegionState
	reads  []int
}

func newSliceRegions(n int) *sliceRegions {
	return &sliceRegions{states: make([]RegionState, n), reads: make([]int, n)}
}

func (s *sliceRegions) Region(k int) RegionState {
	s.reads[k]++
	return s.states[k]
}

// resetRegions starts a batch in which the given regions hold the given
// snapshots and every other region is empty.
func resetRegions(a *Analyzer, states map[int]RegionState) {
	src := newSliceRegions(a.NumRegions())
	for k, s := range states {
		src.states[k] = s
	}
	a.Reset(src)
}

func TestAnalyzerRatesMatchEquations(t *testing.T) {
	a := newTestAnalyzer(600)
	resetRegions(a, map[int]RegionState{0: {Waiting: 3, Available: 10, PredictedRiders: 30, PredictedDrivers: 12}})
	l, mu := a.Rates(0)
	wantL, wantMu := Rates(3, 10, 30, 12, 600)
	if l != wantL || mu != wantMu {
		t.Errorf("rates = (%v,%v), want (%v,%v)", l, mu, wantL, wantMu)
	}
}

func TestAnalyzerCommitRaisesMuAndIdleTime(t *testing.T) {
	a := newTestAnalyzer(600)
	// A region with demand surplus: committing destinations adds supply,
	// which must weakly increase the expected idle time there.
	resetRegions(a, map[int]RegionState{1: {Waiting: 8, Available: 2, PredictedRiders: 20, PredictedDrivers: 5}})
	before := a.ExpectedIdleTime(1)
	_, muBefore := a.Rates(1)
	a.CommitDestination(1)
	_, muAfter := a.Rates(1)
	if muAfter <= muBefore {
		t.Errorf("mu did not increase on commit: %v -> %v", muBefore, muAfter)
	}
	after := a.ExpectedIdleTime(1)
	if after < before {
		t.Errorf("ET decreased after committing a driver: %v -> %v", before, after)
	}
}

func TestAnalyzerUncommitRestores(t *testing.T) {
	a := newTestAnalyzer(600)
	resetRegions(a, map[int]RegionState{2: {Waiting: 5, Available: 3, PredictedRiders: 15, PredictedDrivers: 6}})
	base := a.ExpectedIdleTime(2)
	a.CommitDestination(2)
	a.UncommitDestination(2)
	if got := a.ExpectedIdleTime(2); math.Abs(got-base) > 1e-12 {
		t.Errorf("ET after commit+uncommit = %v, want %v", got, base)
	}
	// Uncommitting below zero clamps.
	a.UncommitDestination(2)
	if got := a.ExpectedIdleTime(2); math.Abs(got-base) > 1e-12 {
		t.Errorf("ET after extra uncommit = %v, want %v", got, base)
	}
}

func TestAnalyzerResetClearsBumps(t *testing.T) {
	a := newTestAnalyzer(600)
	src := newSliceRegions(4)
	src.states[0] = RegionState{Waiting: 1, Available: 1, PredictedRiders: 10, PredictedDrivers: 10}
	src.states[1] = RegionState{Waiting: 2, PredictedRiders: 5, PredictedDrivers: 1}
	a.Reset(src)
	base := a.ExpectedIdleTime(1)
	a.CommitDestination(1)
	a.Reset(src)
	if got := a.ExpectedIdleTime(1); math.Abs(got-base) > 1e-12 {
		t.Errorf("Reset did not clear bumps: %v vs %v", got, base)
	}
}

func TestAnalyzerIdleRatioUsesDestinationET(t *testing.T) {
	a := newTestAnalyzer(600)
	// Region 0: hot (many riders coming) -> short ET.
	// Region 3: cold (no riders coming) -> infinite ET.
	resetRegions(a, map[int]RegionState{
		0: {Waiting: 10, Available: 0, PredictedRiders: 50, PredictedDrivers: 2},
		3: {Waiting: 0, Available: 5, PredictedRiders: 0, PredictedDrivers: 8},
	})
	hot := a.IdleRatio(600, 0)
	cold := a.IdleRatio(600, 3)
	if hot >= cold {
		t.Errorf("hot-region ratio %v should beat cold-region ratio %v", hot, cold)
	}
	if cold != 1 {
		t.Errorf("cold region (lambda=0) ratio = %v, want 1", cold)
	}
	if math.IsInf(a.ExpectedIdleTime(0), 1) || !math.IsInf(a.ExpectedIdleTime(3), 1) {
		t.Error("hot region's ET should be finite and cold region's infinite")
	}
}

func TestAnalyzerCacheConsistency(t *testing.T) {
	a := newTestAnalyzer(600)
	resetRegions(a, map[int]RegionState{0: {Waiting: 5, Available: 2, PredictedRiders: 12, PredictedDrivers: 4}})
	first := a.ExpectedIdleTime(0)
	second := a.ExpectedIdleTime(0) // cached path
	if first != second {
		t.Errorf("cached ET differs: %v vs %v", first, second)
	}
}

// TestAnalyzerReuseMatchesFresh: one analyzer carried across batches —
// its bumps and cached ETs outliving each batch under an older
// generation — answers every query of a batch bitwise as an analyzer
// built fresh for that batch does, through random commits, uncommits
// (some below zero) and reads that fill the cache between them. The
// reused analyzer reads one source that is overwritten in place between
// batches, as the engine's batch arena is, and must read a region
// exactly once in a batch that touches it and never in one that does
// not.
func TestAnalyzerReuseMatchesFresh(t *testing.T) {
	const regions = 12
	model := New(Config{Beta: 0.05})
	reused := NewAnalyzer(model, regions, 600)
	shared := newSliceRegions(regions)
	rng := rand.New(rand.NewSource(5))
	touched := make([]bool, regions)
	for batch := 0; batch < 300; batch++ {
		for k := range shared.states {
			shared.states[k] = RegionState{
				Waiting: rng.Intn(6), Available: rng.Intn(6),
				PredictedRiders: rng.Intn(40), PredictedDrivers: rng.Intn(20),
			}
		}
		clear(shared.reads)
		clear(touched)
		own := newSliceRegions(regions)
		copy(own.states, shared.states)
		fresh := NewAnalyzer(model, regions, 600)
		fresh.Reset(own)
		reused.Reset(shared)
		for op, ops := 0, 1+rng.Intn(40); op < ops; op++ {
			k := rng.Intn(regions)
			switch rng.Intn(3) {
			case 0:
				fresh.CommitDestination(k)
				reused.CommitDestination(k)
				touched[k] = true
			case 1:
				fresh.UncommitDestination(k)
				reused.UncommitDestination(k)
				touched[k] = true
			}
			// Read a random subset, so some regions stay untouched
			// for a while and some whole batches.
			for r := 0; r < regions; r++ {
				if rng.Intn(4) != 0 {
					continue
				}
				touched[r] = true
				got, want := reused.ExpectedIdleTime(r), fresh.ExpectedIdleTime(r)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("batch %d op %d region %d: reused ET %v, fresh %v", batch, op, r, got, want)
				}
				gl, gm := reused.Rates(r)
				wl, wm := fresh.Rates(r)
				if gl != wl || gm != wm {
					t.Fatalf("batch %d op %d region %d: reused rates (%v,%v), fresh (%v,%v)", batch, op, r, gl, gm, wl, wm)
				}
			}
		}
		for k, n := range shared.reads {
			want := 0
			if touched[k] {
				want = 1
			}
			if n != want {
				t.Fatalf("batch %d: region %d read %d times, want %d (touched %v)", batch, k, n, want, touched[k])
			}
		}
	}
}
