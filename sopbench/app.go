package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drms/internal/array"
	"drms/internal/dist"
	"drms/internal/drms"
	"drms/internal/rangeset"
)

// shape is the benchmarked application state: a block-distributed
// iterated float64 array "u" plus a static int32 table "tab" of the same
// length, streamed in fixed-size pieces. Each iteration rewrites
// `windows` seeded windows of `window` consecutive elements of u, placed
// in the global index space so the state is independent of the task
// count and a serial reference model reproduces it bit for bit.
type shape struct {
	elems, window, windows, pieceBytes int
}

// fullShape is the BENCH_6/7 state: 2^18 elements per array, 32 KiB pieces.
var fullShape = shape{elems: 1 << 18, window: 2048, windows: 4, pieceBytes: 32 << 10}

// smallShape is the self-test size.
var smallShape = shape{elems: 1 << 12, window: 64, windows: 2, pieceBytes: 1 << 10}

func initU(i int) float64    { return float64(i%97) * 0.5 }
func initTab(i int) int32    { return int32(i % 251) }
func step(v float64) float64 { return v*0.5 + 1 }

// windowAt is the start of window w of iteration iter under seed.
func (s shape) windowAt(seed int64, iter, w int) int {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(iter)*0xbf58476d1ce4e5b9 ^ uint64(w+1)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb86659d5b9
	x ^= x >> 29
	return int(x % uint64(s.elems-s.window))
}

// reference is the fault-free serial model of the application: the same
// seeded windows applied to a plain slice. Its checksums are what every
// restored, recovered or resized state must reproduce exactly.
type reference struct {
	s     shape
	seed  int64
	iters int
	u     []float64
	tab   float64 // the static table's checksum
}

func newReference(s shape, seed int64) *reference {
	r := &reference{s: s, seed: seed, u: make([]float64, s.elems)}
	for i := range r.u {
		r.u[i] = initU(i)
		r.tab += float64(initTab(i))
	}
	return r
}

// checksum returns u's checksum after `iters` iterations, accumulated in
// global order exactly as array.Checksum does.
func (r *reference) checksum(iters int) float64 {
	if iters < r.iters {
		*r = *newReference(r.s, r.seed)
	}
	for ; r.iters < iters; r.iters++ {
		for w := 0; w < r.s.windows; w++ {
			lo := r.s.windowAt(r.seed, r.iters, w)
			for i := lo; i < lo+r.s.window; i++ {
				r.u[i] = step(r.u[i])
			}
		}
	}
	var sum float64
	for _, v := range r.u {
		sum += v
	}
	return sum
}

// state is one task's declared application state.
type state struct {
	u    *array.Array[float64]
	tab  *array.Array[int32]
	iter int
	lo   int // first global index this task owns
	hi   int // one past the last
}

// declare runs the application prologue: block distributions over the
// current task count, both arrays registered and filled with their
// initial values, the iteration counter in the data segment.
func declare(t *drms.Task, s shape) (*state, error) {
	g := rangeset.NewSlice(rangeset.Span(0, s.elems-1))
	d, err := dist.Block(g, []int{t.Tasks()})
	if err != nil {
		return nil, err
	}
	st := &state{}
	if st.u, err = drms.NewArray[float64](t, "u", d); err != nil {
		return nil, err
	}
	if st.tab, err = drms.NewArray[int32](t, "tab", d); err != nil {
		return nil, err
	}
	t.Register("iter", &st.iter)
	st.u.Fill(func(c []int) float64 { return initU(c[0]) })
	st.tab.Fill(func(c []int) int32 { return initTab(c[0]) })
	if ax := st.u.Assigned().Axis(0); !ax.Empty() {
		st.lo, st.hi = ax.Min(), ax.Max()+1
	}
	return st, nil
}

// advance applies iteration st.iter's windows to this task's share and
// counts the iteration.
func (st *state) advance(s shape, seed int64) {
	c := []int{0}
	for w := 0; w < s.windows; w++ {
		lo := s.windowAt(seed, st.iter, w)
		for i := max(lo, st.lo); i < min(lo+s.window, st.hi); i++ {
			c[0] = i
			st.u.Set(c, step(st.u.At(c)))
		}
	}
	st.iter++
}

// sums is a state's pair of collective checksums at one iteration.
type sums struct {
	iter   int
	u, tab float64
}

func (st *state) checksums() (sums, error) {
	u, err := st.u.Checksum()
	if err != nil {
		return sums{}, err
	}
	tab, err := st.tab.Checksum()
	if err != nil {
		return sums{}, err
	}
	return sums{iter: st.iter, u: u, tab: tab}, nil
}

// verdict compares observed checksums with the reference model.
func (r *reference) verdict(got sums) error {
	want := r.checksum(got.iter)
	if got.u != want || got.tab != r.tab {
		return fmt.Errorf("checksum mismatch at iteration %d: u %v (want %v) tab %v (want %v)",
			got.iter, got.u, want, got.tab, r.tab)
	}
	return nil
}

// gate parks the application between SOPs until the benchmark releases
// its next op. Rank 0 polls the release counter; the other ranks block
// in a broadcast from it, so a parked application costs no CPU. A rank
// failure or an epoch swap still reaches every parked rank as a
// communication error: the blocked receives fail when the transport is
// revoked, and rank 0 checks the transport between polls.
type gate struct {
	allowed atomic.Int64 // ops the benchmark has released
	arrived atomic.Int64 // rank arrivals at the gate, summed over ranks
}

// wait parks until op number `op` is released.
func (g *gate) wait(t *drms.Task, op int64) error {
	g.arrived.Add(1)
	if t.Rank() == 0 {
		for g.allowed.Load() < op {
			if err := t.Comm().Err(); err != nil {
				return err
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	_, err := t.Comm().Bcast(0, nil)
	return err
}

// waitArrived blocks until at least n rank arrivals were counted.
func (g *gate) waitArrived(n int64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for g.arrived.Load() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("application never reached its gate (%d of %d arrivals)", g.arrived.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// samples is a concurrency-safe list of durations.
type samples struct {
	mu sync.Mutex
	ds []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ds = append(s.ds, d)
	s.mu.Unlock()
}

func (s *samples) snapshot() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.ds...)
}
