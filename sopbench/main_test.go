package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"drms/internal/drms"
)

// benchmarkFile is the repository's benchmark contract, one directory up.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runOnce runs one workload at the minimal size and returns its result.
func runOnce(t *testing.T, workload string, traced bool, spans string) result {
	t.Helper()
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "0.2", "--small"}
	if traced {
		args = append(args, "--trace", "1", "--spans", spans)
	}
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s (traced=%v) exited %d: %s", workload, traced, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %s", workload,
			res.Correct, res.Attempted, res.Failed, errOut.String())
	}
	return res
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	var names []string
	for _, w := range loadBenchmark(t).Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
}

// TestEveryMetricEmitted runs each workload once untraced and once
// traced at the minimal size and checks that every metric the benchmark
// file names comes out with its unit, and that every span carries its
// required fields.
func TestEveryMetricEmitted(t *testing.T) {
	b := loadBenchmark(t)
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			res := runOnce(t, w, false, "")
			for _, m := range b.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
				if ok && got.Value == 0 {
					t.Errorf("end-to-end %s reads 0", m.Name)
				}
			}
			if len(res.Metrics) != len(b.EndToEnd) {
				t.Errorf("%d end-to-end metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(b.EndToEnd))
			}

			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			res = runOnce(t, w, true, spans)
			for _, m := range b.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(b.PerLayer) {
				t.Errorf("%d per-layer metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(b.PerLayer))
			}
			checkSpans(t, spans)
		})
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := map[int64]bool{}
	var all []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var raw map[string]any
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"id", "parent", "op", "name", "start_ns", "end_ns"} {
			if _, ok := raw[k]; !ok {
				t.Fatalf("span %s lacks %q", sc.Text(), k)
			}
		}
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.ID <= 0 || s.Op <= 0 || s.Name == "" || s.End < s.Start || ids[s.ID] {
			t.Fatalf("malformed span %+v", s)
		}
		ids[s.ID] = true
		all = append(all, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("traced run wrote no spans")
	}
	for _, s := range all {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %+v names a parent that was never recorded", s)
		}
	}
}

// TestReferenceMatchesRuntime pins the reference model: a distributed
// run's checksums after some iterations equal the serial model's, at
// task counts that do and do not divide the state evenly.
func TestReferenceMatchesRuntime(t *testing.T) {
	const seed, iters = 11, 5
	ref := newReference(smallShape, seed)
	for _, tasks := range []int{1, 3, 4} {
		var got sums
		err := drms.Run(drms.Config{Tasks: tasks, FS: newFS()}, func(t *drms.Task) error {
			st, err := declare(t, smallShape)
			if err != nil {
				return err
			}
			for st.iter < iters {
				st.advance(smallShape, seed)
			}
			s, err := st.checksums()
			if t.Rank() == 0 {
				got = s
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.verdict(got); err != nil {
			t.Fatalf("%d tasks: %v", tasks, err)
		}
	}
}
