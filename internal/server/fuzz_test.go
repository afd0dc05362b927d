package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSubmitOrder throws arbitrary bodies at POST /v1/orders on a live,
// free-running gateway: whatever the bytes, the handler must not panic
// and must answer the client's mistake with a 4xx (or book the order),
// never a 5xx.
func FuzzSubmitOrder(f *testing.F) {
	for _, seed := range []string{
		`{"pickup":{"lng":-73.97,"lat":40.75},"dropoff":{"lng":-73.95,"lat":40.77},"patience_seconds":300}`,
		`{"pickup":{"lng":-73.97,"lat":40.75},"dropoff":{"lng":-73.95,"lat":40.77}}`,
		`{}`,
		`{"pickup":{"lng":0,"lat":0},"dropoff":{"lng":1e308,"lat":-1e308},"patience_seconds":-1}`,
		`{"pickup":{"lng":"-73.97"}}`,
		`{"pickup":null,"dropoff":[],"patience_seconds":1e999}`,
		`{"pickup":{"lng":-73.97,"lat":40.75},"dropoff":{"lng":-73.95,"lat":40.77}} trailing`,
		`[1,2,3]`,
		`{not json`,
		``,
	} {
		f.Add([]byte(seed), false)
	}
	f.Add([]byte(`{"pickup":{"lng":-73.97,"lat":40.75},"dropoff":{"lng":-73.95,"lat":40.77}}`), true)
	srv, _, _ := newTestServer(f, 8, 0, Config{Algorithm: "NEAR"})
	f.Fuzz(func(t *testing.T, body []byte, wait bool) {
		url := "/v1/orders"
		if wait {
			url += "?wait=true"
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q answered %d: %s", url, body, rec.Code, rec.Body)
		}
	})
}
