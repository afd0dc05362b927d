package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mrvd"
)

// TestStatsShardBreakdown: a gateway over a 4-shard session serves the
// per-shard breakdown on /v1/stats.
func TestStatsShardBreakdown(t *testing.T) {
	svc, err := mrvd.NewService(
		mrvd.WithCity(mrvd.NewCity(mrvd.CityConfig{OrdersPerDay: 2000, Seed: 17})),
		mrvd.WithFleet(32),
		mrvd.WithBatchInterval(3),
		mrvd.WithHorizon(10*365*24*3600),
		mrvd.WithPrediction(mrvd.PredictNone, nil),
		mrvd.WithShards(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := New(ctx, svc, Config{Fleet: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		cancel()
		<-srv.Handle().Done()
		ts.Close()
	}()

	// Push one order through so the shards have something to count.
	body := []byte(`{"pickup":{"lng":-73.98,"lat":40.74},"dropoff":{"lng":-73.95,"lat":40.77}}`)
	resp, err := http.Post(ts.URL+"/v1/orders?wait=true", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) != 4 {
		t.Fatalf("/v1/stats carries %d shard entries, want 4", len(stats.Shards))
	}
	admitted, regions, drivers := 0, 0, 0
	for i, s := range stats.Shards {
		if s.Shard != i {
			t.Fatalf("shard entry %d reports id %d", i, s.Shard)
		}
		admitted += s.Admitted
		regions += s.Regions
		drivers += s.Drivers
	}
	if admitted != 1 {
		t.Fatalf("shards admitted %d orders, want 1", admitted)
	}
	if regions != 256 {
		t.Fatalf("shard territories cover %d regions, want 256", regions)
	}
	if drivers != 32 {
		t.Fatalf("shard fleets hold %d drivers, want 32", drivers)
	}
}

// TestStatsDefaultOneShard: without WithShards the session is one shard,
// and /v1/stats reports it as a single entry holding the whole fleet and
// every region.
func TestStatsDefaultOneShard(t *testing.T) {
	_, ts, _ := newTestServer(t, 8, 0, Config{})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) != 1 || stats.Shards[0].Drivers != 8 || stats.Shards[0].Regions != 256 {
		t.Fatalf("default gateway reports shards %+v, want one entry with 8 drivers and 256 regions", stats.Shards)
	}
}
