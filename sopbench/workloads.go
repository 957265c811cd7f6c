package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"drms/internal/ckpt"
	"drms/internal/drms"
	"drms/internal/obs"
	"drms/internal/pfs"
	"drms/internal/stream"
)

const (
	setupReps   = 3  // set-ups of the focus workload per run; setup_s is their median
	warmupSOPs  = 3  // steady-ckpt checkpoints after set-up not counted in pause samples
	bytesWindow = 64 // steady-ckpt checkpoints whose stored bytes are averaged (a multiple of AnchorEvery)
	minPauses   = warmupSOPs + bytesWindow + 36
	recChain    = 6 // generations in the recover workload's chain
	passRounds  = 3 // rounds of the restore mix in a minimal recover pass
	passResizes = 5 // resizes in a minimal elastic pass
	gateLimit   = 60 * time.Second
)

// phase sizes one workload's share of a run. The focus workload runs
// its set-up setupReps times and measures for the whole window; every
// other workload then runs once, minimally, so that each run reports
// every end-to-end metric (the focus workload's values take precedence).
type phase struct {
	focus  bool
	window time.Duration
}

func (p phase) reps() int {
	if p.focus {
		return setupReps
	}
	return 1
}

// more reports whether a measuring loop that started at t0 and has done
// n iterations should run another: every phase runs at least `least`
// iterations, and the focus phase runs for its whole window.
func (p phase) more(t0 time.Time, n, least int) bool {
	return n < least || (p.focus && time.Since(t0) < p.window)
}

func newFS() *pfs.System { return pfs.NewSystem(pfs.DefaultConfig()) }

func (r *benchRun) streamOpts() stream.Options {
	return stream.Options{PieceBytes: r.s.pieceBytes}
}

// window is the focus phase's measured interval: allocations, obs
// deltas, the SOP count and (traced) pfs byte totals between begin and
// end. Minimal phases have none (begin returns nil).
type window struct {
	r     *benchRun
	delta *obsDelta
	m0    uint64
	fs    *pfs.System
}

func (r *benchRun) begin(p phase, fs *pfs.System) *window {
	if !p.focus {
		return nil
	}
	if r.traced {
		fs.StartTrace()
	}
	return &window{r: r, delta: startDelta(), m0: mallocs(), fs: fs}
}

// end closes the window over `sops` SOPs of which `restores` restored.
func (w *window) end(sops, restores int) {
	if w == nil {
		return
	}
	r := w.r
	r.put("allocs_per_sop", "count", float64(mallocs()-w.m0)/float64(max(sops, 1)))
	r.win = w.delta.since()
	r.sops, r.restores = sops, restores
	if r.traced {
		r.pfsRead, r.pfsWritten = w.fs.StopTrace().Bytes()
	}
}

// waitGen blocks until the application committed its first generation.
func waitGen(h *drms.Handle) error {
	deadline := time.Now().Add(gateLimit)
	for {
		if _, ok := h.CommittedGen(); ok {
			return nil
		}
		select {
		case <-h.Done():
			return fmt.Errorf("application exited before its first checkpoint: %v", h.Wait())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no committed generation within %v", gateLimit)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func storedBytes() float64 {
	v, _ := obs.Default.Value("drms_ckpt_stored_bytes_total")
	return v
}

// putPauses reports checkpoint pause percentiles from rank-0 samples.
func (r *benchRun) putPauses(ps []time.Duration) {
	r.put("ckpt_pause_ms.p50", "ms", ms(median(ps)))
	r.put("ckpt_pause_ms.p90", "ms", ms(quantile(ps, 0.9)))
}

// steadyCkpt: 4 ranks checkpoint at every SOP while a few seeded windows
// change between SOPs — the full write path with warm plans.
func (r *benchRun) steadyCkpt(p phase) error {
	const tasks = 4
	var (
		pauses  samples
		bytesAt [2]float64 // stored-bytes counter at iterations warmupSOPs and warmupSOPs+bytesWindow
		final   = make(chan sums, 1)
		finalEr = make(chan error, 1)
	)
	body := func(t *drms.Task) error {
		st, err := declare(t, r.s)
		if err != nil {
			return err
		}
		for {
			_, end := r.tr.begin("drms.Task.ReconfigCheckpoint", 0, r.tr.newOp())
			if _, _, err := t.ReconfigCheckpoint("steady"); err != nil {
				return err
			}
			if d := end(1); t.Rank() == 0 {
				pauses.add(d)
			}
			// Stored bytes are counted by every writer; a barrier makes the
			// counter whole before rank 0 reads it.
			if k := st.iter - warmupSOPs; k == 0 || k == bytesWindow {
				if err := t.Comm().Barrier(); err != nil {
					return err
				}
				if t.Rank() == 0 {
					bytesAt[k/bytesWindow] = storedBytes()
				}
			}
			if t.StopRequested() {
				got, err := st.checksums()
				if t.Rank() == 0 {
					final <- got
					finalEr <- err
				}
				return err
			}
			st.advance(r.s, r.seed)
		}
	}

	var (
		h    *drms.Handle
		fs   *pfs.System
		tier *ckpt.MemTier
	)
	for rep := 0; rep < p.reps(); rep++ {
		fresh()
		fs, tier = newFS(), ckpt.NewMemTier()
		start := time.Now()
		var err error
		if h, err = drms.Start(drms.Config{Tasks: tasks, FS: fs, Keep: 2, AnchorEvery: 8,
			Codec: ckpt.CodecFlate, Tier: tier, Replicas: 1, DemoteEvery: 4,
			Stream: r.streamOpts()}, body); err != nil {
			return err
		}
		if err := waitGen(h); err != nil {
			return err
		}
		r.setup(p, time.Since(start))
		if rep < p.reps()-1 {
			h.RequestStop()
			if err := h.Wait(); err != nil {
				return err
			}
			r.check(<-final, <-finalEr)
			pauses = samples{}
		}
	}
	w := r.begin(p, fs)
	t0 := time.Now()
	for time.Since(t0) < p.window || len(pauses.snapshot()) < minPauses {
		if time.Since(t0) > 2*time.Minute {
			return fmt.Errorf("only %d checkpoints in two minutes", len(pauses.snapshot()))
		}
		time.Sleep(10 * time.Millisecond)
	}
	h.RequestStop()
	r.op(h.Wait())
	all := pauses.snapshot()
	w.end(len(all), 0)
	r.check(<-final, <-finalEr)
	r.putPauses(all[warmupSOPs:])
	r.put("ckpt_stored_bytes", "B", (bytesAt[1]-bytesAt[0])/bytesWindow)
	r.notef("steady-ckpt: %d checkpoints", len(all))

	// The newest generation must restore to the state the run ended in.
	gen, ok := h.CommittedGen()
	if !ok {
		return fmt.Errorf("no committed generation")
	}
	got, _, err := r.restoreOnce(fs, tier, tasks, fmt.Sprintf("steady.g%d", gen))
	r.check(got, err)
	return nil
}

// restoreOnce launches a fresh incarnation on `tasks` tasks that restores
// the pinned generation at its first SOP, checksums the state and exits.
// It returns the checksums and the time from launch to the end of rank
// 0's restore SOP, and counts which tier served the restore.
func (r *benchRun) restoreOnce(fs *pfs.System, tier *ckpt.MemTier, tasks int, gen string) (sums, time.Duration, error) {
	var ttr time.Duration
	var got sums
	_, end := r.tr.begin("drms.Start.restore", 0, r.tr.newOp())
	defer end(1)
	start := time.Now()
	h, err := drms.Start(drms.Config{Tasks: tasks, FS: fs, Tier: tier, RestartFrom: gen,
		Stream: r.streamOpts()}, func(t *drms.Task) error {
		st, err := declare(t, r.s)
		if err != nil {
			return err
		}
		status, _, err := t.ReconfigCheckpoint(baseOf(gen))
		if err != nil {
			return err
		}
		if t.Rank() == 0 {
			ttr = time.Since(start)
		}
		if status != drms.Restored {
			return fmt.Errorf("restore SOP returned %v", status)
		}
		s, err := st.checksums()
		if t.Rank() == 0 {
			got = s
		}
		return err
	})
	if err != nil {
		return sums{}, 0, err
	}
	if err := h.Wait(); err != nil {
		return sums{}, 0, err
	}
	if tier != nil {
		if src, _ := h.LastRestoreSource(); src == "mem" {
			r.hotServed++
		} else {
			r.hotFellBack++
		}
	}
	return got, ttr, nil
}

func baseOf(gen string) string {
	base, _, _ := ckpt.GenOf(gen)
	return base
}

// recover writes one committed chain at 4 ranks, then restores it in a
// seeded order: hot at 4 ranks from the memory tier, from the pfs at 4,
// reconfigured from the pfs at 2 and at 3, and a 1-rank partial recovery
// of the still-running writer.
func (r *benchRun) recover(p phase) error {
	const tasks = 4
	var (
		g      *gate
		quit   atomic.Bool
		pauses samples
		sumsC  = make(chan sums, 4)
		errC   = make(chan error, 4)
	)
	body := func(t *drms.Task) error {
		st, err := declare(t, r.s)
		if err != nil {
			return err
		}
		for {
			start := time.Now()
			status, _, err := t.ReconfigCheckpoint("rec")
			if err != nil {
				return err
			}
			if t.Rank() == 0 && status == drms.Continued {
				pauses.add(time.Since(start))
			}
			if st.iter == recChain-1 {
				got, err := st.checksums()
				if t.Rank() == 0 {
					sumsC <- got
					errC <- err
				}
				if err != nil {
					return err
				}
				if err := g.wait(t, 1); err != nil {
					return err
				}
				if quit.Load() {
					return nil
				}
			}
			st.advance(r.s, r.seed)
		}
	}
	var (
		h     *drms.Handle
		fs    *pfs.System
		tier  *ckpt.MemTier
		bytes float64
	)
	for rep := 0; rep < p.reps(); rep++ {
		fresh()
		fs, tier = newFS(), ckpt.NewMemTier()
		g = &gate{}
		b0 := storedBytes()
		start := time.Now()
		var err error
		if h, err = drms.Start(drms.Config{Tasks: tasks, FS: fs, Keep: 2, AnchorEvery: 8,
			Codec: ckpt.CodecFlate, Tier: tier, Replicas: 1, Partial: true,
			Stream: r.streamOpts()}, body); err != nil {
			return err
		}
		if err := g.waitArrived(tasks, gateLimit); err != nil {
			return err
		}
		r.setup(p, time.Since(start))
		bytes = (storedBytes() - b0) / recChain
		r.check(<-sumsC, <-errC)
		if rep < p.reps()-1 {
			quit.Store(true)
			g.allowed.Store(1)
			if err := h.Wait(); err != nil {
				return err
			}
			quit.Store(false)
		}
	}
	r.putPauses(pauses.snapshot())
	r.put("ckpt_stored_bytes", "B", bytes)
	genN, ok := h.CommittedGen()
	if !ok {
		return fmt.Errorf("writer committed no generation")
	}
	gen := fmt.Sprintf("rec.g%d", genN)

	rng := rand.New(rand.NewSource(r.seed))
	kinds := []string{"hot", "pfs", "re2", "re3", "partial"}
	var hot, pfsT, reconf, part []time.Duration
	arrivals := int64(tasks)
	w := r.begin(p, fs)
	sops := 0
	for t0, rounds := time.Now(), 0; p.more(t0, rounds, passRounds); rounds++ {
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			sops++
			switch k {
			case "hot":
				got, ttr, err := r.restoreOnce(fs, tier, tasks, gen)
				r.check(got, err)
				hot = append(hot, ttr)
			case "pfs":
				got, ttr, err := r.restoreOnce(fs, nil, tasks, gen)
				r.check(got, err)
				pfsT = append(pfsT, ttr)
			case "re2", "re3":
				n := 2
				if k == "re3" {
					n = 3
				}
				got, ttr, err := r.restoreOnce(fs, nil, n, gen)
				r.check(got, err)
				reconf = append(reconf, ttr)
			case "partial":
				victim := rng.Intn(tasks)
				_, end := r.tr.begin("drms.Handle.PartialRecover", 0, r.tr.newOp())
				_, err := h.PartialRecover(drms.PartialRecoverSpec{Dead: []int{victim}, From: gen})
				ttr := end(1)
				if err == nil {
					arrivals += tasks
					err = g.waitArrived(arrivals, gateLimit)
				}
				if err == nil {
					r.check(<-sumsC, <-errC)
				} else {
					r.op(err)
				}
				part = append(part, ttr)
			}
		}
	}
	w.end(sops, sops)
	quit.Store(true)
	g.allowed.Store(1)
	r.op(h.Wait())
	r.put("restore_hot_ms.p50", "ms", ms(median(hot)))
	r.put("restore_pfs_ms.p50", "ms", ms(median(pfsT)))
	r.put("reconfig_restore_ms.p50", "ms", ms(median(reconf)))
	r.put("partial_ttr_ms.p50", "ms", ms(median(part)))
	r.notef("recover: hot %v pfs %v reconf %v partial %v", hot, pfsT, reconf, part)
	return nil
}

// elastic cycles the task count 2→3→4→3→2 through in-flight resizes,
// with one hot-tier checkpoint SOP between resizes.
func (r *benchRun) elastic(p phase) error {
	cycle := []int{2, 3, 4, 3}
	// The focus phase starts the cycle at 2 tasks, so its set-up is the
	// same for every seed; a minimal phase starts at 3 tasks and runs
	// 3→4→3→2→3→4.
	pos := 0
	if !p.focus {
		pos = 1
	}
	var (
		g      *gate
		quit   atomic.Bool
		pauses samples
		done   = make(chan struct{}, 8) // one per completed SOP; the benchmark drains each
		sumsC  = make(chan sums, 4)
		errC   = make(chan error, 4)
	)
	body := func(t *drms.Task) error {
		st, err := declare(t, r.s)
		if err != nil {
			return err
		}
		for {
			// The gate releases SOPs one at a time, numbered by iteration;
			// a task re-entering the prologue after a swap passes it at
			// once (iteration 0) and restores the resize generation.
			if err := g.wait(t, int64(st.iter)+1); err != nil {
				return err
			}
			if quit.Load() {
				return nil
			}
			start := time.Now()
			status, _, err := t.ReconfigCheckpoint("el")
			if err != nil {
				return err
			}
			if status == drms.Restored {
				got, err := st.checksums()
				if t.Rank() == 0 {
					sumsC <- got
					errC <- err
				}
				if err != nil {
					return err
				}
			} else if t.Rank() == 0 {
				pauses.add(time.Since(start))
			}
			if t.Rank() == 0 {
				done <- struct{}{}
			}
			st.advance(r.s, r.seed)
		}
	}
	var (
		h  *drms.Handle
		fs *pfs.System
	)
	for rep := 0; rep < p.reps(); rep++ {
		fresh()
		g = &gate{}
		fs = newFS()
		start := time.Now()
		var err error
		if h, err = drms.Start(drms.Config{Tasks: cycle[pos], FS: fs, Keep: 2,
			Codec: ckpt.CodecRaw, Tier: ckpt.NewMemTier(), Replicas: 1, DemoteEvery: 1 << 20,
			Stream: r.streamOpts()}, body); err != nil {
			return err
		}
		g.allowed.Store(1)
		<-done
		r.setup(p, time.Since(start))
		if rep < p.reps()-1 {
			quit.Store(true)
			g.allowed.Add(1 << 40)
			if err := h.Wait(); err != nil {
				return err
			}
			quit.Store(false)
		}
	}
	pauses = samples{}
	var ttrs []time.Duration
	w := r.begin(p, fs)
	sops, restores := 0, 0
	// The focus phase runs whole cycles, so every transition weighs the
	// same in the median.
	for t0 := time.Now(); p.more(t0, len(ttrs), passResizes) || (p.focus && len(ttrs)%len(cycle) != 0); {
		// One plain hot-tier checkpoint SOP...
		g.allowed.Add(1)
		<-done
		sops++
		// ...then the resize, riding the next SOP.
		pos = (pos + 1) % len(cycle)
		type res struct {
			st  drms.ResizeStats
			err error
		}
		rc := make(chan res, 1)
		_, end := r.tr.begin("drms.Handle.Resize", 0, r.tr.newOp())
		go func(n int) {
			st, err := h.Resize(drms.ResizeSpec{Tasks: n})
			rc <- res{st, err}
		}(cycle[pos])
		g.allowed.Add(1)
		var out res
	wait:
		for {
			select {
			case out = <-rc:
				break wait
			case <-done: // the SOP ran before the resize was armed: release another
				sops++
				g.allowed.Add(1)
			}
		}
		ttrs = append(ttrs, end(1))
		r.op(out.err)
		if out.err != nil {
			break
		}
		sops += 2 // the resize generation and the new epoch's restore
		restores++
		<-done
		r.check(<-sumsC, <-errC)
	}
	w.end(sops, restores)
	quit.Store(true)
	g.allowed.Add(1 << 40)
	r.op(h.Wait())
	r.put("resize_ttr_ms.p50", "ms", ms(median(ttrs)))
	r.putPauses(pauses.snapshot())
	r.notef("elastic: resizes %v, pauses %v", ttrs, pauses.snapshot())
	return nil
}
