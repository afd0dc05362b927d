package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// spanKind names a span. Spans are cut only where the engine calls out
// through a public interface the benchmark implements, so each kind is
// the interval between two such crossings.
type spanKind uint8

const (
	// Replay spans: one spanBatch root per batch (or lockstep round).
	spanBatch         spanKind = iota // OrderSource.Poll entry -> next Poll entry
	spanAdmitBuild                    // Poll entry -> OnBatchStart (single engine: admission + context build)
	spanWave                          // a BatchCoster.Costs call pricing an admission wave
	spanMatrix                        // a BatchCoster.Costs call pricing the batch matrix
	spanEstimate                      // OnBatchStart -> Assign entry (idle-estimate capture)
	spanAssign                        // Assign entry -> exit
	spanApply                         // Assign exit -> next Poll (apply + reposition + loop yield)
	spanAdmit                         // sharded: Poll entry -> OnBatchStart (route + admit + re-home)
	spanBuildEstimate                 // sharded, per shard: OnBatchStart -> Assign entry (context build + estimates)
	spanApplyBarrier                  // sharded, per shard: Assign exit -> next Poll (apply + barrier wait)
	// live_http spans: one spanOp root per HTTP operation.
	spanOp        // due time -> reply read by the client
	spanHandle    // wrapping http.Handler entry -> return
	spanQueueWait // handler entry -> OnBatchStart of the batch that assigned the order
	spanEngine    // that OnBatchStart -> the order's OnAssigned
	spanDeliver   // OnAssigned -> handler return
)

var spanNames = [...]string{
	spanBatch: "batch", spanAdmitBuild: "sim.admit_build", spanWave: "roadnet.wave_costs",
	spanMatrix: "roadnet.matrix_costs", spanEstimate: "sim.estimate", spanAssign: "dispatch.assign",
	spanApply: "sim.apply", spanAdmit: "shard.admit", spanBuildEstimate: "sim.build_estimate",
	spanApplyBarrier: "shard.apply_barrier", spanOp: "http.op", spanHandle: "server.handle",
	spanQueueWait: "service.queue_wait", spanEngine: "service.engine", spanDeliver: "service.deliver",
}

// span is one traced interval. Its id is its index in the tracer plus
// one; parent is the id of the span that caused it, 0 for a root.
// Times are nanoseconds since the tracer's epoch.
type span struct {
	kind       spanKind
	parent     int32
	trace      int64
	start, end int64
}

// tracer keeps spans in memory until the run ends. The mutex only
// matters under the shard runtime, where per-shard dispatchers record
// concurrently; a single engine takes it uncontended.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its id.
func (t *tracer) add(kind spanKind, parent int32, trace, start, end int64) int32 {
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kind, parent: parent, trace: trace, start: start, end: end})
	id := int32(len(t.spans))
	t.mu.Unlock()
	return id
}

// setEnd closes a span that was added before its end was known (a
// batch root, whose children need its id while it is still open).
func (t *tracer) setEnd(id int32, end int64) {
	t.mu.Lock()
	t.spans[id-1].end = end
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its child spans cover. Children may overlap (shards
// run in parallel) and are clipped to the parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	order := make([]int32, 0, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent != 0 {
			order = append(order, int32(i))
		}
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.parent != sb.parent {
			return sa.parent < sb.parent
		}
		return sa.start < sb.start
	})
	for i := 0; i < len(order); {
		parent := spans[order[i]].parent
		p := spans[parent-1]
		covered, reach := int64(0), p.start
		for ; i < len(order) && spans[order[i]].parent == parent; i++ {
			c := spans[order[i]]
			lo, hi := max(c.start, reach), min(c.end, p.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[parent-1] -= covered
	}
	return self
}

// writeSpans writes one JSON object per line:
// {"id":..,"name":..,"start_ns":..,"end_ns":..,"parent":..,"trace_id":..}.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 160)
	for i, s := range spans {
		buf = append(buf[:0], `{"id":`...)
		buf = strconv.AppendInt(buf, int64(i+1), 10)
		buf = append(buf, `,"name":"`...)
		buf = append(buf, spanNames[s.kind]...)
		buf = append(buf, `","start_ns":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"trace_id":`...)
		buf = strconv.AppendInt(buf, s.trace, 10)
		buf = append(buf, "}\n"...)
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
