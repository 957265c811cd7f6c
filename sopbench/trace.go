package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"drms/internal/obs"
)

// span is one timed call the benchmark made into a layer. Spans of one
// benchmark operation share Op; Parent is the enclosing span (0 = none).
// Start and End are offsets from the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls"` // calls the span covers (batched micro-ops)
}

// tracer keeps spans in memory; they are written out once, when the run
// ends. A disabled tracer records nothing and costs one branch.
type tracer struct {
	on    bool
	epoch time.Time
	ids   atomic.Int64
	ops   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// newOp allocates a benchmark-operation id.
func (t *tracer) newOp() int64 { return t.ops.Add(1) }

// begin opens a span; the returned func closes it covering `calls` calls
// and returns its duration.
func (t *tracer) begin(name string, parent, op int64) (id int64, end func(calls int) time.Duration) {
	start := time.Now()
	if !t.on {
		return 0, func(int) time.Duration { return time.Since(start) }
	}
	id = t.ids.Add(1)
	return id, func(calls int) time.Duration {
		now := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
			Start: int64(start.Sub(t.epoch)), End: int64(now.Sub(t.epoch)), Calls: calls})
		t.mu.Unlock()
		return now.Sub(start)
	}
}

// record adds a span observed from outside (an event pair) as its own
// operation.
func (t *tracer) record(name string, start, end time.Time) {
	if !t.on {
		return
	}
	id, op := t.ids.Add(1), t.ops.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Calls: 1})
	t.mu.Unlock()
}

// per returns the median per-call duration of the named spans.
func (t *tracer) per(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.Calls > 0 {
			ds = append(ds, time.Duration((s.End-s.Start)/int64(s.Calls)))
		}
	}
	return median(ds)
}

func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// obsDelta reads obs.Default counters and histogram sums as a
// before/after difference around a measured window: the registry is
// cumulative and shared by every layer and every earlier phase.
type obsDelta struct {
	before map[string]float64
}

// histograms are read by their sums.
var histograms = []string{"drms_stream_write_seconds", "drms_stream_write_stall_seconds"}

func obsSnapshot() map[string]float64 {
	m := map[string]float64{}
	for _, n := range []string{
		"drms_array_plan_cache_hits_total", "drms_array_plan_cache_misses_total",
		"drms_stream_plan_cache_hits_total", "drms_stream_plan_cache_misses_total",
		"drms_stream_net_bytes_total", "drms_msg_collectives_total",
		"drms_msg_send_bytes_total", "drms_ckpt_codec_in_bytes_total",
		"drms_ckpt_codec_out_bytes_total", "drms_coord_partial_fallbacks_total",
		"drms_coord_resize_fallbacks_total", "drms_coord_recovery_attempts_total",
	} {
		m[n], _ = obs.Default.Value(n)
	}
	for _, n := range histograms {
		m[n+".sum"] = obs.GetHistogram(n, "", obs.LatencyBuckets).Sum()
	}
	return m
}

func startDelta() *obsDelta { return &obsDelta{before: obsSnapshot()} }

// since returns every tracked value's change since the delta started.
func (d *obsDelta) since() map[string]float64 {
	now := obsSnapshot()
	for k, v := range d.before {
		now[k] -= v
	}
	return now
}

// heapPeak samples the live heap — the bytes the last garbage
// collection marked reachable, so unswept garbage does not make the
// reading depend on GC timing — every few milliseconds and keeps the
// largest reading. runtime/metrics reads do not stop the world.
type heapPeak struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stopc: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapPeak) stop() uint64 {
	close(h.stopc)
	<-h.done
	return h.peak
}
