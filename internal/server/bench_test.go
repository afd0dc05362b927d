package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkGatewayThroughput measures the HTTP submit path end to end:
// concurrent clients POST orders (fire-and-forget) against a live
// gateway over loopback while the free-running engine dispatches them.
// ns/op is the wall cost of one accepted submission.
func BenchmarkGatewayThroughput(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := New(ctx, newTestService(b, 256, 0), Config{
		Algorithm:  "NEAR",
		Fleet:      256,
		MaxPending: 1 << 20, // throughput, not backpressure, is under test
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, _ := json.Marshal(orderRequest{
		Pickup:          pointJSON{Lng: -73.97, Lat: 40.75},
		Dropoff:         pointJSON{Lng: -73.95, Lat: 40.77},
		PatienceSeconds: 1e7,
	})
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/v1/orders", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusAccepted {
				b.Errorf("status %d", resp.StatusCode)
			}
			io.Copy(io.Discard, resp.Body) // drain so keep-alive reuses the conn
			resp.Body.Close()
		}
	})
}
