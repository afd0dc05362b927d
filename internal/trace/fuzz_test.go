package trace

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzReadCSV feeds the trace loader arbitrary files: it must reject or
// accept without panicking, every order it accepts is Valid and has
// finite times (checked here, not through Valid), an accepted trace
// sorts by post time, and it survives a WriteCSV → ReadCSV round trip
// order for order.
func FuzzReadCSV(f *testing.F) {
	header := strings.Join(csvHeader, ",") + "\n"
	for _, seed := range []string{
		header + "0,12.500,-73.970000,40.750000,-73.950000,40.770000,312.500\n",
		header + "7,0,-74,40.6,-73.8,40.9,0\n1,5,-74,40.6,-73.8,40.9,4\n",
		header + "1,NaN,Inf,-Inf,0,0,NaN\n",
		header + "0,NaN,-73.97,40.75,-73.95,40.77,NaN\n",
		header + "1,+Inf,-73.97,40.75,-73.95,40.77,+Inf\n",
		header + "99999999999,0,0,0,0,0,0\n",
		header + "1,2,3\n",
		header + "\"1\",\"2\n",
		header,
		"order_id,post_time_s\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		orders, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, o := range orders {
			if err := o.Valid(); err != nil {
				t.Fatalf("ReadCSV accepted an invalid order: %v", err)
			}
			for _, v := range []float64{o.PostTime, o.Deadline} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("ReadCSV accepted order %d with a non-finite time %v", o.ID, v)
				}
			}
		}
		sorted := slices.Clone(orders)
		SortByPostTime(sorted)
		for i := 1; i < len(sorted); i++ {
			// Not !(b < a): a NaN post time would pass that.
			if !(sorted[i-1].PostTime <= sorted[i].PostTime) {
				t.Fatalf("sorted trace has post time %v before %v", sorted[i-1].PostTime, sorted[i].PostTime)
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, orders); err != nil {
			t.Fatalf("WriteCSV of an accepted trace: %v", err)
		}
		again, err := ReadCSV(&buf)
		if err != nil || len(again) != len(orders) {
			t.Fatalf("round trip: %d orders became %d, err %v", len(orders), len(again), err)
		}
	})
}
