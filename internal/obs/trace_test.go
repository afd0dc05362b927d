package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestTracerEmitsOneJSONLinePerSpan(t *testing.T) {
	var b strings.Builder
	tr := NewTracer(&b)
	tr.Emit(Span{Order: 1, Outcome: OutcomeServed, Driver: 3, SubmitAt: 1, AdmitAt: 2, EndAt: 10})
	tr.Emit(Span{Order: 2, Outcome: OutcomeReneged, Driver: -1, SubmitAt: 5, AdmitAt: 6, EndAt: 66})
	if tr.Count() != 2 {
		t.Fatalf("count = %d, want 2", tr.Count())
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var lines int
	for sc.Scan() {
		lines++
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("line %d not a span: %v\n%s", lines, err, sc.Text())
		}
		if sp.Outcome == "" || sp.Order == 0 && lines == 2 {
			t.Fatalf("line %d round-tripped empty: %+v", lines, sp)
		}
	}
	if lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

func TestTracerRetainsFirstError(t *testing.T) {
	w := &failWriter{}
	tr := NewTracer(w)
	tr.Emit(Span{Order: 1})
	tr.Emit(Span{Order: 2})
	if tr.Close() == nil {
		t.Fatal("error not retained")
	}
	if tr.Count() != 0 {
		t.Fatalf("count = %d after failed writes, want 0", tr.Count())
	}
	if w.n != 1 {
		t.Fatalf("writer called %d times, want 1 (later emits are no-ops)", w.n)
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	var b strings.Builder
	var mu sync.Mutex
	tr := NewTracer(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	}))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit(Span{Order: int64(g*100 + i), Outcome: OutcomeServed})
			}
		}(g)
	}
	wg.Wait()
	if tr.Count() != 400 {
		t.Fatalf("count = %d, want 400", tr.Count())
	}
	mu.Lock()
	out := b.String()
	mu.Unlock()
	sc := bufio.NewScanner(strings.NewReader(out))
	var lines int
	for sc.Scan() {
		lines++
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("interleaved write corrupted line %d: %v", lines, err)
		}
	}
	if lines != 400 {
		t.Fatalf("wrote %d lines, want 400", lines)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// closeWriter fails every write when failWrites is set and otherwise
// accepts it; Close counts the call and returns closeErr.
type closeWriter struct {
	failWrites bool
	closeErr   error
	closed     int
}

func (w *closeWriter) Write(p []byte) (int, error) {
	if w.failWrites {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func (w *closeWriter) Close() error {
	w.closed++
	return w.closeErr
}

// TestTracerCloseReturnsFirstError: Close closes a writer that is an
// io.Closer and returns the first error the tracer saw — the close
// error after clean writes, the write error when one came first — and
// on a writer that is not an io.Closer returns the retained error.
func TestTracerCloseReturnsFirstError(t *testing.T) {
	closeErr := errors.New("close failed")
	clean := &closeWriter{closeErr: closeErr}
	tr := NewTracer(clean)
	tr.Emit(Span{Order: 1})
	if err := tr.Close(); !errors.Is(err, closeErr) || clean.closed != 1 {
		t.Errorf("clean writes: Close = %v after %d closes, want %v after 1", err, clean.closed, closeErr)
	}

	failing := &closeWriter{failWrites: true, closeErr: closeErr}
	tr = NewTracer(failing)
	tr.Emit(Span{Order: 1})
	if err := tr.Close(); err == nil || errors.Is(err, closeErr) || err.Error() != "disk full" || failing.closed != 1 {
		t.Errorf("failed write: Close = %v after %d closes, want the write error after 1", err, failing.closed)
	}

	tr = NewTracer(&failWriter{})
	tr.Emit(Span{Order: 1})
	if err := tr.Close(); err == nil || err.Error() != "disk full" {
		t.Errorf("non-Closer writer: Close = %v, want the retained write error", err)
	}
}
