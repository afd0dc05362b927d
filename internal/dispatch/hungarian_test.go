package dispatch

import (
	"math"
	"math/rand"
	"testing"
)

// The exact maximum-weight bipartite matching the differential oracle
// (oracle_test.go) holds every dispatcher's batch revenue against, and
// the tests that pin the solver itself: an O(n^3) Hungarian
// (Kuhn-Munkres) solver plus a greedy matcher for comparison.

// maxWeight solves the maximum-weight bipartite assignment problem for a
// weight matrix w[row][col]. Forbidden edges are encoded as -Inf. It
// returns assign[row] = col (or -1 when the row stays unmatched) and the
// total weight of the selected assignment.
//
// Internally it runs the O(n^3) potential-based Hungarian algorithm on
// the negated weights, padded to a square matrix in which every real row
// also owns a zero-weight "stay unmatched" slack column — so rows whose
// only finite edges have negative weight are left unmatched rather than
// forced into a harmful assignment.
func maxWeight(w [][]float64) (assign []int, total float64) {
	rows := len(w)
	if rows == 0 {
		return nil, 0
	}
	cols := 0
	for _, r := range w {
		if len(r) > cols {
			cols = len(r)
		}
	}
	assign = make([]int, rows)
	for i := range assign {
		assign[i] = -1
	}
	if cols == 0 {
		return assign, 0
	}

	// Square problem of size n: rows 0..rows-1 are real, the rest pad;
	// columns 0..cols-1 are real, column cols+i is row i's slack.
	n := rows + cols
	// A finite "forbidden" cost keeps the potential updates well-defined;
	// it must dominate any achievable |weight| sum. Scale from the data.
	maxAbs := 1.0
	for _, row := range w {
		for _, x := range row {
			if !math.IsInf(x, 0) && math.Abs(x) > maxAbs {
				maxAbs = math.Abs(x)
			}
		}
	}
	forbidden := maxAbs*float64(n+1) + 1
	cost := func(i, j int) float64 {
		if i >= rows {
			return 0 // padding rows match anything at no cost
		}
		if j < cols {
			if j >= len(w[i]) || math.IsInf(w[i][j], -1) {
				return forbidden
			}
			return -w[i][j]
		}
		if j == cols+i {
			return 0 // row i's personal unmatched slot
		}
		return forbidden
	}

	// e-maxx formulation with 1-based arrays: u/v potentials, p[j] = row
	// matched to column j, way[j] = previous column on the alternating
	// path.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1)
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minV := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := 1; j <= n; j++ {
			minV[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost(i0-1, j-1) - u[i0] - v[j]
				if cur < minV[j] {
					minV[j] = cur
					way[j] = j0
				}
				if minV[j] < delta {
					delta = minV[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minV[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	for j := 1; j <= n; j++ {
		i := p[j] - 1
		col := j - 1
		if i < 0 || i >= rows || col >= cols {
			continue
		}
		if math.IsInf(w[i][col], -1) || col >= len(w[i]) {
			continue // landed on a forbidden edge; treat as unmatched
		}
		// The slack column guarantees a zero-weight alternative, so a
		// negative-weight real assignment is never *optimal*, but numeric
		// ties can surface one; filter it.
		if w[i][col] < 0 {
			continue
		}
		assign[i] = col
		total += w[i][col]
	}
	return assign, total
}

// greedyMatch matches rows to columns by repeatedly taking the largest
// remaining positive weight (ties broken by lowest row then column).
// Returns assign[row] = col or -1. It is a 1/2-approximation for maximum
// weight matching, held against maxWeight below.
func greedyMatch(w [][]float64) (assign []int, total float64) {
	rows := len(w)
	assign = make([]int, rows)
	for i := range assign {
		assign[i] = -1
	}
	usedCol := map[int]bool{}
	for {
		bestR, bestC, bestW := -1, -1, 0.0
		for r := 0; r < rows; r++ {
			if assign[r] != -1 {
				continue
			}
			for c, weight := range w[r] {
				if usedCol[c] || math.IsInf(weight, -1) || weight <= 0 {
					continue
				}
				if weight > bestW {
					bestR, bestC, bestW = r, c, weight
				}
			}
		}
		if bestR == -1 {
			return assign, total
		}
		assign[bestR] = bestC
		usedCol[bestC] = true
		total += bestW
	}
}

func TestMaxWeightSimple(t *testing.T) {
	w := [][]float64{
		{3, 1},
		{2, 4},
	}
	assign, total := maxWeight(w)
	if assign[0] != 0 || assign[1] != 1 {
		t.Errorf("assign = %v, want [0 1]", assign)
	}
	if total != 7 {
		t.Errorf("total = %v, want 7", total)
	}
}

func TestMaxWeightPrefersCrossAssignment(t *testing.T) {
	// Greedy would take w[0][0]=9 then w[1][1]=1 (total 10); optimal is
	// 8 + 7 = 15.
	w := [][]float64{
		{9, 8},
		{7, 1},
	}
	assign, total := maxWeight(w)
	if total != 15 {
		t.Errorf("total = %v, want 15 (assign %v)", total, assign)
	}
	if assign[0] != 1 || assign[1] != 0 {
		t.Errorf("assign = %v, want [1 0]", assign)
	}
}

func TestMaxWeightRectangular(t *testing.T) {
	// More rows than columns: one row must stay unmatched.
	w := [][]float64{
		{5},
		{9},
		{2},
	}
	assign, total := maxWeight(w)
	if total != 9 {
		t.Errorf("total = %v, want 9", total)
	}
	matched := 0
	for i, a := range assign {
		if a == 0 {
			matched++
			if i != 1 {
				t.Errorf("row %d matched, want row 1", i)
			}
		}
	}
	if matched != 1 {
		t.Errorf("%d rows matched, want 1", matched)
	}
	// More columns than rows.
	w2 := [][]float64{{1, 10, 2}}
	assign2, total2 := maxWeight(w2)
	if assign2[0] != 1 || total2 != 10 {
		t.Errorf("assign=%v total=%v, want [1] 10", assign2, total2)
	}
}

func TestMaxWeightForbiddenEdges(t *testing.T) {
	ninf := math.Inf(-1)
	w := [][]float64{
		{ninf, 5},
		{3, ninf},
	}
	assign, total := maxWeight(w)
	if assign[0] != 1 || assign[1] != 0 || total != 8 {
		t.Errorf("assign=%v total=%v, want [1 0] 8", assign, total)
	}
	// A row with only forbidden edges stays unmatched.
	w2 := [][]float64{
		{ninf, ninf},
		{1, 2},
	}
	assign2, total2 := maxWeight(w2)
	if assign2[0] != -1 {
		t.Errorf("fully forbidden row matched to %d", assign2[0])
	}
	if total2 != 2 {
		t.Errorf("total = %v, want 2", total2)
	}
}

func TestMaxWeightNegativeWeightsLeftUnmatched(t *testing.T) {
	w := [][]float64{
		{-5, -2},
		{3, -1},
	}
	assign, total := maxWeight(w)
	if assign[0] != -1 {
		t.Errorf("row 0 with all-negative weights matched to %d", assign[0])
	}
	if assign[1] != 0 || total != 3 {
		t.Errorf("assign=%v total=%v, want row1->0 total 3", assign, total)
	}
}

func TestMaxWeightEmpty(t *testing.T) {
	if a, tot := maxWeight(nil); a != nil || tot != 0 {
		t.Errorf("empty input: %v %v", a, tot)
	}
	a, tot := maxWeight([][]float64{{}, {}})
	if tot != 0 || a[0] != -1 || a[1] != -1 {
		t.Errorf("zero-column input: %v %v", a, tot)
	}
}

// bruteForceMax enumerates all assignments of rows to distinct columns.
func bruteForceMax(w [][]float64) float64 {
	cols := 0
	for _, r := range w {
		if len(r) > cols {
			cols = len(r)
		}
	}
	used := make([]bool, cols)
	var rec func(row int) float64
	rec = func(row int) float64 {
		if row == len(w) {
			return 0
		}
		best := rec(row + 1) // leave row unmatched
		for c := 0; c < len(w[row]); c++ {
			if used[c] || math.IsInf(w[row][c], -1) || w[row][c] < 0 {
				continue
			}
			used[c] = true
			if v := w[row][c] + rec(row+1); v > best {
				best = v
			}
			used[c] = false
		}
		return best
	}
	return rec(0)
}

func TestMaxWeightMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(6)
		w := make([][]float64, rows)
		for i := range w {
			w[i] = make([]float64, cols)
			for j := range w[i] {
				switch rng.Intn(5) {
				case 0:
					w[i][j] = math.Inf(-1)
				case 1:
					w[i][j] = -rng.Float64() * 10
				default:
					w[i][j] = rng.Float64() * 10
				}
			}
		}
		_, got := maxWeight(w)
		want := bruteForceMax(w)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: hungarian %v != brute force %v for %v", trial, got, want, w)
		}
	}
}

func TestMaxWeightAssignmentIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := make([][]float64, 20)
	for i := range w {
		w[i] = make([]float64, 15)
		for j := range w[i] {
			w[i][j] = rng.Float64() * 100
		}
	}
	assign, total := maxWeight(w)
	seen := map[int]bool{}
	sum := 0.0
	for i, a := range assign {
		if a == -1 {
			continue
		}
		if seen[a] {
			t.Fatalf("column %d assigned twice", a)
		}
		seen[a] = true
		sum += w[i][a]
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("reported total %v != recomputed %v", total, sum)
	}
}

func TestGreedyIsValidAndWithinHalfOfOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		rows := 2 + rng.Intn(8)
		cols := 2 + rng.Intn(8)
		w := make([][]float64, rows)
		for i := range w {
			w[i] = make([]float64, cols)
			for j := range w[i] {
				w[i][j] = rng.Float64() * 10
			}
		}
		gAssign, gTotal := greedyMatch(w)
		_, hTotal := maxWeight(w)
		if gTotal > hTotal+1e-9 {
			t.Fatalf("greedy %v beat optimal %v", gTotal, hTotal)
		}
		if gTotal < hTotal/2-1e-9 {
			t.Fatalf("greedy %v below half of optimal %v", gTotal, hTotal)
		}
		seen := map[int]bool{}
		for _, a := range gAssign {
			if a == -1 {
				continue
			}
			if seen[a] {
				t.Fatal("greedy assigned a column twice")
			}
			seen[a] = true
		}
	}
}
