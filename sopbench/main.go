// Command sopbench is the repository's wall-clock benchmark. It drives
// the DRMS runtime through its public entry points from one process —
// drms.Start/Run, Task.ReconfigCheckpoint, Handle.PartialRecover,
// Handle.Resize, and the coord versioned API over a ControlServer — and
// reports what an application sees at its SOPs: checkpoint pause,
// restore, partial-recovery, resize and supervised time-to-recover,
// control-op latency, set-up time and memory. Every restored state is
// compared bit for bit with a fault-free serial reference of the same
// seed.
//
//	go run . --workload steady-ckpt --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the same workload runs with spans around the
// benchmark's own calls into each layer and reports per-layer metrics
// instead (README.md). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"drms/internal/array"
	"drms/internal/stream"
)

// workloads names every workload in the order BENCHMARK.json lists them.
// The supervised pass is not a workload of its own: it runs in every run
// (README.md).
var workloads = []string{"steady-ckpt", "recover", "elastic"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("sopbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: steady-ckpt, recover or elastic")
	seed := fl.Int64("seed", 1, "input seed (windows, victims, restore order, resize schedule)")
	secs := fl.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fl.Int("trace", 0, "1: traced run reporting per-layer metrics")
	small := fl.Bool("small", false, "minimal state size (self-test)")
	spans := fl.String("spans", "", "file the traced run writes its spans to (JSON lines)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	s := fullShape
	if *small {
		s = smallShape
	}
	r := newRun(s, *seed, time.Duration(*secs*float64(time.Second)), *trace == 1)
	res, err := r.execute(*name)
	if err != nil {
		fmt.Fprintf(stderr, "sopbench: %v\n", err)
		return 1
	}
	if *trace == 1 && *spans != "" {
		if err := r.tr.writeFile(*spans); err != nil {
			fmt.Fprintf(stderr, "sopbench: writing spans: %v\n", err)
			return 1
		}
	}
	for _, e := range r.errs {
		fmt.Fprintf(stderr, "sopbench: failed op: %s\n", e)
	}
	for _, n := range r.notes {
		fmt.Fprintln(stderr, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "sopbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// benchRun is one invocation's state: inputs, the reference model, the
// failure tally and the metrics gathered so far.
type benchRun struct {
	s       shape
	seed    int64
	measure time.Duration // length of the focus workload's measured window
	traced  bool
	ref     *reference
	tr      *tracer
	e2e     map[string]metric
	layer   map[string]metric
	ops     int // operations attempted
	failed  int
	errs    []string
	notes   []string // per-phase samples and timings, for stderr
	setups  []time.Duration

	// The focus workload's measured window: obs deltas, SOPs, restores
	// among them, and (traced) pfs bytes.
	win                 map[string]float64
	sops, restores      int
	pfsRead, pfsWritten int64
	// Restores launched with the memory tier: served entirely from peer
	// memory, or fallen back (wholly or partly) to the pfs.
	hotServed, hotFellBack int
}

func newRun(s shape, seed int64, measure time.Duration, traced bool) *benchRun {
	return &benchRun{s: s, seed: seed, measure: measure, traced: traced,
		ref: newReference(s, seed), tr: newTracer(traced),
		e2e: map[string]metric{}, layer: map[string]metric{}}
}

// op counts one attempted operation; a non-nil error is a failure.
func (r *benchRun) op(err error) {
	r.ops++
	if err != nil {
		r.failed++
		r.errs = append(r.errs, err.Error())
	}
}

// check counts one restored state and compares it with the reference.
func (r *benchRun) check(got sums, err error) {
	if err == nil {
		err = r.ref.verdict(got)
	}
	r.op(err)
}

// put records an end-to-end metric unless an earlier (focus) phase
// already did.
func (r *benchRun) put(name, unit string, v float64) {
	if _, ok := r.e2e[name]; !ok {
		r.e2e[name] = metric{v, unit}
	}
}

func (r *benchRun) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// setup records one set-up time of the focus workload.
func (r *benchRun) setup(p phase, d time.Duration) {
	if p.focus {
		r.setups = append(r.setups, d)
	}
}

func (r *benchRun) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fresh makes a run independent of process history: plan caches that
// an earlier phase warmed are dropped, so every set-up pays the same
// cold plan builds.
func fresh() {
	array.FlushPlans()
	stream.FlushPlans()
}

func (r *benchRun) execute(name string) (result, error) {
	phases := map[string]func(phase) error{
		"steady-ckpt": r.steadyCkpt, "recover": r.recover, "elastic": r.elastic,
	}
	focus, ok := phases[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	mem := startHeapPeak()
	run := startDelta()
	t0 := time.Now()
	err := focus(phase{focus: true, window: r.measure})
	r.notef("%s: focus phase %v", name, time.Since(t0).Round(time.Millisecond))
	// Every run reports every end-to-end metric: the metrics the focus
	// workload does not produce come from one minimal pass of each other
	// workload (steady-ckpt's come from every workload's own checkpoints)
	// and from the supervised pass.
	passes := []struct {
		name string
		run  func() error
	}{
		{"recover", func() error { return r.recover(phase{}) }},
		{"elastic", func() error { return r.elastic(phase{}) }},
		{"supervised", r.supervised},
	}
	for _, ps := range passes {
		if err == nil && ps.name != name {
			t0 := time.Now()
			err = ps.run()
			r.notef("%s: pass %v", ps.name, time.Since(t0).Round(time.Millisecond))
		}
	}
	peak := mem.stop()
	if err == nil && r.traced {
		r.layerDeltas(run.since())
		err = r.probeLayers(name)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	r.put("setup_s", "s", seconds(median(r.setups)))
	r.put("peak_heap_mb", "MB", float64(peak)/(1<<20))
	r.put("success_share", "share", float64(r.ops-r.failed)/float64(r.ops))
	res := result{Correct: r.failed == 0, Attempted: r.ops, Failed: r.failed,
		Metrics: r.e2e}
	if r.traced {
		// The traced run's own end-to-end values ride along under a
		// "traced." prefix: traced minus untraced is the tracing overhead.
		for k, m := range r.e2e {
			r.layer["traced."+k] = m
		}
		res.Metrics = r.layer
	}
	return res, nil
}

// ms and seconds convert durations to the reported units.
func ms(d time.Duration) float64      { return float64(d) / float64(time.Millisecond) }
func seconds(d time.Duration) float64 { return d.Seconds() }

// quantile returns the q-quantile (0..1) of ds by the nearest-rank rule.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
