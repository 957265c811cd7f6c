// Package array implements DRMS distributed arrays (§3.1): abstract
// global Cartesian index spaces whose sections are concretely present in
// the tasks of a parallel application, and the array assignment operation
// that moves data between two arrays with arbitrary, different
// distributions. Array assignment is the primitive on which data
// redistribution, computational steering, inter-application communication
// and — via the stream package — scalable checkpointing are built.
package array

import (
	"fmt"

	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// Array is one task's handle on a distributed array: the global
// descriptor plus the local storage for this task's mapped section. SPMD
// tasks each construct their own handle with identical name, distribution
// and element type.
//
// Local storage holds the mapped section linearized in column-major order
// of the mapped slice. Elements of the mapped section outside the
// assigned section are shadow copies; their values are defined by the
// owning task and refreshed by assignment operations.
type Array[T Elem] struct {
	name  string
	d     *dist.Distribution
	comm  *msg.Comm
	local []T
}

// New allocates a task's handle on the distributed array `name` with
// distribution d. Every task of comm must call New with equal arguments
// (SPMD). The local storage is zeroed.
func New[T Elem](comm *msg.Comm, name string, d *dist.Distribution) (*Array[T], error) {
	if d.Tasks() != comm.Size() {
		return nil, fmt.Errorf("array %q: distribution spans %d tasks but communicator has %d",
			name, d.Tasks(), comm.Size())
	}
	return &Array[T]{
		name:  name,
		d:     d,
		comm:  comm,
		local: make([]T, d.Mapped(comm.Rank()).Size()),
	}, nil
}

// Name returns the array's global name.
func (a *Array[T]) Name() string { return a.name }

// Comm returns the communicator the array lives on.
func (a *Array[T]) Comm() *msg.Comm { return a.comm }

// Dist returns the array's distribution.
func (a *Array[T]) Dist() *dist.Distribution { return a.d }

// Global returns the global index space.
func (a *Array[T]) Global() rangeset.Slice { return a.d.Global() }

// Mapped returns this task's mapped section.
func (a *Array[T]) Mapped() rangeset.Slice { return a.d.Mapped(a.comm.Rank()) }

// Assigned returns this task's assigned section.
func (a *Array[T]) Assigned() rangeset.Slice { return a.d.Assigned(a.comm.Rank()) }

// Local exposes the raw local storage (mapped section, column-major).
// Compute kernels index it directly via LocalIndex or with precomputed
// strides for dense sections.
func (a *Array[T]) Local() []T { return a.local }

// LocalIndex returns the local-storage position of global coordinate c,
// which must lie in the mapped section.
func (a *Array[T]) LocalIndex(c []int) int {
	off, ok := a.Mapped().Offset(c, rangeset.ColMajor)
	if !ok {
		panic(fmt.Sprintf("array %q: coordinate %v not mapped to task %d", a.name, c, a.comm.Rank()))
	}
	return off
}

// Has reports whether global coordinate c is mapped to this task.
func (a *Array[T]) Has(c []int) bool {
	_, ok := a.Mapped().Offset(c, rangeset.ColMajor)
	return ok
}

// At returns the local copy of the element at global coordinate c.
func (a *Array[T]) At(c []int) T { return a.local[a.LocalIndex(c)] }

// Set stores v into the local copy of the element at global coordinate c.
func (a *Array[T]) Set(c []int, v T) { a.local[a.LocalIndex(c)] = v }

// Fill sets every mapped element from f(c). Tasks fill shadow copies too,
// so after Fill all copies are consistent iff f is a pure function of the
// coordinate.
func (a *Array[T]) Fill(f func(c []int) T) {
	m := a.Mapped()
	i := 0
	m.Each(rangeset.ColMajor, func(c []int) {
		a.local[i] = f(c)
		i++
	})
}

// runStride returns the distance in a column-major local storage of the
// mapped section m between elements consecutive along the fastest-varying
// axis of the given linearization order. Runs produced by
// rangeset.Slice.Runs step by exactly this stride in local storage:
// consecutive integers have consecutive ranks in m's fast-axis range, so
// the stride is the constant layout stride of that axis.
func runStride(m rangeset.Slice, order rangeset.Order) int {
	d := m.Rank()
	if order == rangeset.ColMajor || d <= 1 {
		return 1 // axis 0 is the fastest-varying axis of the storage itself
	}
	stride := 1
	for i := 0; i < d-1; i++ {
		stride *= m.Axis(i).Size()
	}
	return stride
}

// PackSection linearizes the elements of section s (which must be a
// subset of this task's mapped section) in the given order and returns
// their wire encoding.
func (a *Array[T]) PackSection(s rangeset.Slice, order rangeset.Order) ([]byte, error) {
	out := make([]byte, s.Size()*ElemSize[T]())
	if err := a.PackSectionInto(s, order, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PackSectionInto is PackSection into a caller-supplied buffer of exactly
// the section's wire size, so hot paths (assignment, streaming) can reuse
// buffers across operations. It moves data one maximal stride-1 run at a
// time: a single global-to-local offset computation and a single type
// dispatch per run, then a dense encode loop.
func (a *Array[T]) PackSectionInto(s rangeset.Slice, order rangeset.Order, buf []byte) error {
	es := ElemSize[T]()
	if len(buf) != s.Size()*es {
		return fmt.Errorf("array %q: section %v needs %d bytes, got %d",
			a.name, s, s.Size()*es, len(buf))
	}
	stride := runStride(a.Mapped(), order)
	local := any(a.local) // boxed once; the per-run type switch is then free of allocation
	o := 0
	s.Runs(order, func(c []int, n int) {
		encodeRun(local, buf[o:], a.LocalIndex(c), n, stride)
		o += n * es
	})
	return nil
}

// UnpackSection stores a wire buffer produced by PackSection with the
// same section and order into the local storage, run by run (the exact
// inverse of PackSectionInto).
func (a *Array[T]) UnpackSection(s rangeset.Slice, order rangeset.Order, buf []byte) error {
	es := ElemSize[T]()
	if len(buf) != s.Size()*es {
		return fmt.Errorf("array %q: section %v needs %d bytes, got %d",
			a.name, s, s.Size()*es, len(buf))
	}
	stride := runStride(a.Mapped(), order)
	local := any(a.local)
	o := 0
	s.Runs(order, func(c []int, n int) {
		decodeRun(local, buf[o:], a.LocalIndex(c), n, stride)
		o += n * es
	})
	return nil
}

// Assign implements the DRMS array assignment B <- A for this task: every
// element of B present in any task's address space (assigned or shadow
// copy) receives the value of the corresponding element of A, all copies
// updated consistently. A and B must have the same global shape and live
// on the same communicator; their distributions are arbitrary. Elements
// of B not assigned in A (undefined in A) are left untouched. Assign is a
// collective: every task must call it.
//
// Assign executes a cached communication plan (see plan.go): the first
// assignment between a given pair of distributions computes the schedule
// — per-peer intersection runs, buffer sizes, and the sparse exchange
// graph — and every repeat replays it, which is what makes steady-state
// periodic checkpointing and per-iteration shadow exchanges cheap.
func Assign[T Elem](dst, src *Array[T]) error {
	if !dst.Global().Equal(src.Global()) {
		return fmt.Errorf("array assign %q <- %q: global shapes %v and %v differ",
			dst.name, src.name, dst.Global(), src.Global())
	}
	if dst.comm != src.comm {
		return fmt.Errorf("array assign %q <- %q: different communicators", dst.name, src.name)
	}
	c := src.comm
	es := ElemSize[T]()
	pl := assignPlanFor(src.d, dst.d, c, es)

	// Phase 1: pack this task's contribution to every active peer at the
	// plan's precomputed offsets. Buffers come from the pool; the
	// transport copies on send, so they are recycled right after the
	// exchange.
	srcLocal := any(src.local)
	for i := range pl.send {
		px := &pl.send[i]
		buf := getBuf(px.bytes)
		packRuns(srcLocal, buf, px.runs, es, 1)
		pl.sendBufs[px.peer] = buf
	}

	// Phase 2: sparse exchange — only the peers the plan marks active are
	// framed and touched. On failure (revoked comm, dead peer) the scratch
	// buffers are recycled and the plan's per-call state cleared, so the
	// cached schedule itself stays pristine for a later retry or restart.
	recv, xerr := c.AlltoallSparse(pl.sendBufs, pl.sendTo, pl.recvFrom)
	for i := range pl.send {
		putBuf(pl.sendBufs[pl.send[i].peer])
		pl.sendBufs[pl.send[i].peer] = nil
	}
	if xerr != nil {
		return fmt.Errorf("array assign %q <- %q: %w", dst.name, src.name, xerr)
	}

	// The self-overlap never leaves the task: both sides planned the same
	// section, so its runs align 1:1 and copy element-typed, skipping the
	// wire codec entirely. (For the self-assignment A <- A the offsets
	// coincide and the copies are identities.)
	for i, r := range pl.selfSrc {
		d := pl.selfDst[i]
		copy(dst.local[d.off:d.off+r.n], src.local[r.off:r.off+r.n])
	}

	// Phase 3: unpack what every active owner sent for this task's mapped
	// section of B.
	dstLocal := any(dst.local)
	for i := range pl.recv {
		px := &pl.recv[i]
		if len(recv[px.peer]) != px.bytes {
			return fmt.Errorf("array assign %q <- %q: peer %d sent %d bytes, plan expects %d",
				dst.name, src.name, px.peer, len(recv[px.peer]), px.bytes)
		}
		unpackRuns(dstLocal, recv[px.peer], px.runs, es, 1)
	}
	return nil
}

// assignReference is the plan-free assignment: intersections, run
// decompositions, and offsets recomputed on every call, exchanged with
// the dense all-to-all. It is the semantic reference the plan-cached
// Assign is property-tested against (and the baseline its benchmarks are
// measured from); keep the two in lockstep when the model changes.
func assignReference[T Elem](dst, src *Array[T]) error {
	if !dst.Global().Equal(src.Global()) {
		return fmt.Errorf("array assign %q <- %q: global shapes %v and %v differ",
			dst.name, src.name, dst.Global(), src.Global())
	}
	if dst.comm != src.comm {
		return fmt.Errorf("array assign %q <- %q: different communicators", dst.name, src.name)
	}
	c := src.comm
	p := c.Rank()
	n := c.Size()
	es := ElemSize[T]()

	send := make([][]byte, n)
	myAssigned := src.d.Assigned(p)
	for q := 0; q < n; q++ {
		sec := myAssigned.Intersect(dst.d.Mapped(q))
		if sec.Empty() {
			continue
		}
		send[q] = getBuf(sec.Size() * es)
		if err := src.PackSectionInto(sec, rangeset.ColMajor, send[q]); err != nil {
			return err
		}
	}

	recv, err := c.Alltoall(send)
	for _, b := range send {
		putBuf(b)
	}
	if err != nil {
		return fmt.Errorf("array assign %q <- %q: %w", dst.name, src.name, err)
	}

	myMapped := dst.d.Mapped(p)
	for q := 0; q < n; q++ {
		sec := src.d.Assigned(q).Intersect(myMapped)
		if sec.Empty() {
			continue
		}
		if err := dst.UnpackSection(sec, rangeset.ColMajor, recv[q]); err != nil {
			return err
		}
	}
	return nil
}

// Reset rebinds the handle to distribution nd, discarding all element
// values: the local storage is resized (reusing capacity when possible)
// and zeroed, exactly as a freshly New'd array. The streaming layer uses
// it to recycle one auxiliary array across redistribution rounds instead
// of allocating a fresh array per round. Every task must Reset with the
// same distribution (SPMD), like New.
//
// Reset needs no plan-cache invalidation: communication plans are keyed
// by distribution identity, not by array handle, so plans involving the
// old distribution stay correct for any array still bound to it and
// simply age out of the bounded cache once nothing rebuilds them.
func (a *Array[T]) Reset(nd *dist.Distribution) error {
	if nd.Tasks() != a.comm.Size() {
		return fmt.Errorf("array %q: distribution spans %d tasks but communicator has %d",
			a.name, nd.Tasks(), a.comm.Size())
	}
	n := nd.Mapped(a.comm.Rank()).Size()
	if cap(a.local) >= n {
		a.local = a.local[:n]
		clear(a.local) // fresh-array semantics: undefined elements read as zero
	} else {
		a.local = make([]T, n)
	}
	a.d = nd
	return nil
}

// Redistribute returns a new handle on the same logical array with
// distribution nd, with all element values carried over (drms_distribute
// after drms_adjust). Collective.
func (a *Array[T]) Redistribute(nd *dist.Distribution) (*Array[T], error) {
	b, err := New[T](a.comm, a.name, nd)
	if err != nil {
		return nil, err
	}
	if err := Assign(b, a); err != nil {
		return nil, err
	}
	return b, nil
}

// ExchangeShadows refreshes every shadow copy (mapped but not assigned
// element) from its owner. It is the halo exchange grid solvers perform
// between iterations, expressed as the self-assignment A <- A.
func (a *Array[T]) ExchangeShadows() error {
	return Assign(a, a)
}

// Gather collects the full array at task root in the global linearization
// order given (the distribution-independent representation). On root the
// result has Global().Size() elements; elsewhere it is nil. Collective.
// Unassigned (undefined) elements are zero.
//
// Like Assign, Gather executes a cached plan: each task's pack runs and
// root's per-sender scatter runs into the dense global space are computed
// once per (distribution, root, order) and replayed on every repeat.
func (a *Array[T]) Gather(root int, order rangeset.Order) ([]T, error) {
	c := a.comm
	p := c.Rank()
	es := ElemSize[T]()
	pl := gatherPlanFor(a.d, c, root, order, es)
	buf := getBuf(pl.packBytes)
	packRuns(any(a.local), buf, pl.packRuns, es, pl.packStride)
	parts, err := c.Gather(root, buf)
	putBuf(buf)
	if err != nil {
		return nil, fmt.Errorf("array %q: gather: %w", a.name, err)
	}
	if p != root {
		return nil, nil
	}
	out := make([]T, a.Global().Size())
	boxed := any(out)
	for q := 0; q < c.Size(); q++ {
		unpackRuns(boxed, parts[q], pl.scatter[q], es, 1)
	}
	return out, nil
}

// checksumWindow is the number of global elements Checksum gathers per
// step: task 0 holds one window of the array, never all of it.
const checksumWindow = 1 << 16

// Checksum returns a distribution-independent checksum: the sum of all
// assigned elements accumulated in global column-major order at task 0
// and broadcast. Because the accumulation order is fixed by the global
// space, two runs with different task counts or distributions of the same
// values produce bitwise-identical checksums. Collective.
func (a *Array[T]) Checksum() (float64, error) {
	return a.checksum(checksumWindow)
}

// checksum is Checksum gathered in windows of w consecutive global
// positions. For each window every task packs the not yet sent part of
// its gather-plan runs that falls inside it, and task 0 scatters the
// parts into a zeroed window buffer and adds it up: the same elements,
// in the same order, with the same float adds as summing the whole
// gathered array, in O(w) memory — a barrier per window keeps tasks from
// running ahead.
func (a *Array[T]) checksum(w int) (float64, error) {
	c := a.comm
	es := ElemSize[T]()
	pl := gatherPlanFor(a.d, c, 0, rangeset.ColMajor, es)
	total := a.Global().Size()
	local := any(a.local)
	var (
		mine runCursor
		sum  float64
		win  []T
		from []runCursor // task 0: one cursor per sender
	)
	if c.Rank() == 0 {
		win = make([]T, min(w, total))
		from = make([]runCursor, c.Size())
	}
	for lo := 0; lo < total; lo += w {
		hi := min(lo+w, total)
		buf := getBuf(min(w*es, pl.packBytes))
		o := 0
		mine.take(pl.packGlobal, hi, func(i, k, m int) {
			r := pl.packRuns[i]
			encodeRun(local, buf[o:], r.off+k*pl.packStride, m, pl.packStride)
			o += m * es
		})
		parts, err := c.Gather(0, buf[:o])
		putBuf(buf)
		if err == nil && hi < total {
			// Sends do not wait for the receiver: without this fence a
			// task would queue every window at task 0 at once.
			err = c.Barrier()
		}
		if err != nil {
			return 0, fmt.Errorf("array %q: checksum: %w", a.name, err)
		}
		if parts == nil {
			continue // not task 0
		}
		win := win[:hi-lo]
		clear(win)
		boxed := any(win)
		for q, part := range parts {
			o := 0
			from[q].take(pl.scatter[q], hi, func(i, k, m int) {
				decodeRun(boxed, part[o:], pl.scatter[q][i].off+k-lo, m, 1)
				o += m * es
			})
		}
		for _, v := range win {
			sum += float64(v)
		}
	}
	return c.AllreduceF64(sum, msg.Sum)
}

// runCursor walks a run list (global offsets, increasing) one window at
// a time, remembering the run it is in (i) and how many of that run's
// elements earlier windows took (k).
type runCursor struct{ i, k int }

// take advances the cursor to global offset hi, calling f(i, k, m) for
// each piece passed: m elements of run i, starting k elements into it.
func (rc *runCursor) take(runs []xferRun, hi int, f func(i, k, m int)) {
	for rc.i < len(runs) {
		r := runs[rc.i]
		start := r.off + rc.k
		if start >= hi {
			return
		}
		m := min(r.n-rc.k, hi-start)
		f(rc.i, rc.k, m)
		if rc.k += m; rc.k == r.n {
			rc.i, rc.k = rc.i+1, 0
		}
	}
}
