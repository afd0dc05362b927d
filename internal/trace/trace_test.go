package trace

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"mrvd/internal/geo"
)

func sampleOrders(n int, seed int64) []Order {
	rng := rand.New(rand.NewSource(seed))
	orders := make([]Order, n)
	for i := range orders {
		post := rng.Float64() * 86400
		orders[i] = Order{
			ID:       OrderID(i),
			PostTime: post,
			Pickup: geo.Point{
				Lng: geo.NYCBBox.MinLng + rng.Float64()*0.26,
				Lat: geo.NYCBBox.MinLat + rng.Float64()*0.34,
			},
			Dropoff: geo.Point{
				Lng: geo.NYCBBox.MinLng + rng.Float64()*0.26,
				Lat: geo.NYCBBox.MinLat + rng.Float64()*0.34,
			},
			Deadline: post + 60 + rng.Float64()*240,
		}
	}
	return orders
}

func TestOrderValid(t *testing.T) {
	good := Order{ID: 1, PostTime: 10, Deadline: 70}
	if err := good.Valid(); err != nil {
		t.Errorf("valid order rejected: %v", err)
	}
	if err := (Order{PostTime: -1, Deadline: 5}).Valid(); err == nil {
		t.Error("negative post time accepted")
	}
	if err := (Order{PostTime: 100, Deadline: 50}).Valid(); err == nil {
		t.Error("deadline before post time accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, o := range []Order{
		{PostTime: nan, Deadline: nan}, {PostTime: nan, Deadline: 60}, {PostTime: 10, Deadline: nan},
		{PostTime: inf, Deadline: inf}, {PostTime: 10, Deadline: inf}, {PostTime: -inf, Deadline: 60},
	} {
		if err := o.Valid(); err == nil {
			t.Errorf("non-finite times accepted: post %v, deadline %v", o.PostTime, o.Deadline)
		}
	}
}

func TestSortByPostTime(t *testing.T) {
	orders := []Order{
		{ID: 2, PostTime: 50, Deadline: 60},
		{ID: 1, PostTime: 10, Deadline: 20},
		{ID: 0, PostTime: 50, Deadline: 70},
	}
	SortByPostTime(orders)
	if orders[0].ID != 1 {
		t.Errorf("first order = %d, want 1", orders[0].ID)
	}
	// Tie at t=50 broken by id.
	if orders[1].ID != 0 || orders[2].ID != 2 {
		t.Errorf("tie-break wrong: %v", orders)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orders := sampleOrders(200, 7)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orders); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orders) {
		t.Fatalf("round trip lost orders: %d vs %d", len(back), len(orders))
	}
	for i := range orders {
		if back[i].ID != orders[i].ID {
			t.Fatalf("order %d id mismatch", i)
		}
		if d := back[i].PostTime - orders[i].PostTime; d > 0.001 || d < -0.001 {
			t.Fatalf("order %d post time drifted by %v", i, d)
		}
		if d := back[i].Pickup.Lng - orders[i].Pickup.Lng; d > 1e-5 || d < -1e-5 {
			t.Fatalf("order %d pickup drifted", i)
		}
	}
}

func TestReadCSVRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"bad header":    "a,b,c,d,e,f,g\n1,2,3,4,5,6,7\n",
		"bad id":        "order_id,post_time_s,pickup_lng,pickup_lat,dropoff_lng,dropoff_lat,deadline_s\nxx,1,2,3,4,5,6\n",
		"bad float":     "order_id,post_time_s,pickup_lng,pickup_lat,dropoff_lng,dropoff_lat,deadline_s\n1,zz,2,3,4,5,6\n",
		"invalid order": "order_id,post_time_s,pickup_lng,pickup_lat,dropoff_lng,dropoff_lat,deadline_s\n1,100,2,3,4,5,50\n",
		"NaN times":     "order_id,post_time_s,pickup_lng,pickup_lat,dropoff_lng,dropoff_lat,deadline_s\n0,NaN,-73.97,40.75,-73.95,40.77,NaN\n",
		"Inf times":     "order_id,post_time_s,pickup_lng,pickup_lat,dropoff_lng,dropoff_lat,deadline_s\n1,+Inf,-73.97,40.75,-73.95,40.77,+Inf\n",
		"short record":  "order_id,post_time_s,pickup_lng,pickup_lat,dropoff_lng,dropoff_lat,deadline_s\n1,2,3\n",
		"empty":         "",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestCountPerSlot(t *testing.T) {
	grid := geo.NewNYCGrid()
	center := geo.NYCBBox.Center()
	orders := []Order{
		{ID: 0, PostTime: 10, Pickup: center, Deadline: 100},
		{ID: 1, PostTime: 20, Pickup: center, Deadline: 100},
		{ID: 2, PostTime: 1810, Pickup: center, Deadline: 2000},
		{ID: 3, PostTime: 30, Pickup: geo.Point{Lng: 0, Lat: 0}, Deadline: 100}, // outside grid
		{ID: 4, PostTime: 999999, Pickup: center, Deadline: 9999999},            // outside horizon
	}
	counts := CountPerSlot(orders, grid, 1800, 3600)
	r := grid.Region(center)
	if counts[0][r] != 2 {
		t.Errorf("slot 0 count = %d, want 2", counts[0][r])
	}
	if counts[1][r] != 1 {
		t.Errorf("slot 1 count = %d, want 1", counts[1][r])
	}
	total := 0
	for _, slot := range counts {
		for _, c := range slot {
			total += c
		}
	}
	if total != 3 {
		t.Errorf("total bucketed = %d, want 3 (outside orders dropped)", total)
	}
}

// TestSortByPostTimeMatchesSortSlice pins SortByPostTime to sort.Slice
// with the same less function, permutation for permutation, on shuffled
// traces where post times repeat, ids repeat (equal keys with different
// payloads), and one post time is NaN.
func TestSortByPostTimeMatchesSortSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		orders := sampleOrders(3000, seed)
		for i := range orders {
			orders[i].PostTime = float64(rng.Intn(50)) // many equal post times
			orders[i].ID = OrderID(rng.Intn(400))      // duplicate ids
		}
		orders[rng.Intn(len(orders))].PostTime = math.NaN()
		rng.Shuffle(len(orders), func(i, j int) { orders[i], orders[j] = orders[j], orders[i] })

		want := slices.Clone(orders)
		sort.Slice(want, func(i, j int) bool {
			if want[i].PostTime != want[j].PostTime {
				return want[i].PostTime < want[j].PostTime
			}
			return want[i].ID < want[j].ID
		})
		SortByPostTime(orders)
		for i := range orders {
			// Compare bits so the NaN entry matches itself.
			if orders[i].ID != want[i].ID || math.Float64bits(orders[i].PostTime) != math.Float64bits(want[i].PostTime) ||
				orders[i].Pickup != want[i].Pickup || orders[i].Dropoff != want[i].Dropoff || orders[i].Deadline != want[i].Deadline {
				t.Fatalf("seed %d: position %d is %+v, sort.Slice put %+v there", seed, i, orders[i], want[i])
			}
		}
	}
}
