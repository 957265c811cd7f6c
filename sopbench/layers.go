package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"sort"
	"time"

	"drms/internal/array"
	"drms/internal/ckpt"
	"drms/internal/codec"
	"drms/internal/dist"
	"drms/internal/drms"
	"drms/internal/msg"
	"drms/internal/rangeset"
	"drms/internal/seg"
	"drms/internal/stream"
)

// The traced run's per-layer numbers. Two sources:
//
//   - spans the benchmark records around its own calls into each layer's
//     public functions, made on the workload's state shape and pool size
//     after the workload itself has run (probeLayers);
//   - before/after deltas of the obs.Default counters over the focus
//     workload's measured window (layerDeltas), normalised per SOP.
//
// README.md maps every metric to the end-to-end metric it should move.

const microReps = 200 // calls per span of a sub-microsecond operation

// sink keeps the compiler from discarding probed calls' results.
var sink any

// probeTasks is the pool size the layer probes run at: the pool of
// steady-ckpt and recover, and the largest of elastic's cycle.
const probeTasks = 4

// timed records one span named name (a child of parent, in operation op)
// around calls invocations of f and returns the per-call duration.
func (r *benchRun) timed(name string, parent, op int64, calls int, f func() error) (time.Duration, error) {
	_, end := r.tr.begin(name, parent, op)
	var err error
	for i := 0; i < calls && err == nil; i++ {
		err = f()
	}
	d := end(calls)
	return d / time.Duration(calls), err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probeLayers runs every layer probe once on the workload's shape.
func (r *benchRun) probeLayers(workload string) error {
	op := r.tr.newOp()
	root, end := r.tr.begin("probe."+workload, 0, op)
	defer end(1)
	if err := r.probeLocal(root, op); err != nil {
		return err
	}
	if err := r.probeStart(root, op, probeTasks); err != nil {
		return err
	}
	return r.probeCollective(root, op, probeTasks)
}

// probeLocal times the single-task layers: rangeset, dist, codec, seg
// and the memory tier's per-piece operations.
func (r *benchRun) probeLocal(parent, op int64) error {
	g := rangeset.NewSlice(rangeset.Span(0, r.s.elems-1))
	d4, err := dist.Block(g, []int{4})
	if err != nil {
		return err
	}
	// Equal on two equal regular block ranges built separately (the
	// comparison a plan-cache validation makes), Intersect of a block
	// with a piece-sized span straddling it.
	a, b := d4.Assigned(1).Axis(0), d4.Assigned(1).Axis(0).Shift(0)
	span := rangeset.Span(a.Min()-r.s.pieceBytes/16, a.Min()+r.s.pieceBytes/16)
	dt, _ := r.timed("rangeset.Range.Equal", parent, op, microReps/10, func() error {
		sink = a.Equal(b)
		return nil
	})
	r.setLayer("rangeset.equal_ns", "ns", float64(dt))
	dt, _ = r.timed("rangeset.Range.Intersect", parent, op, microReps, func() error {
		sink = span.Intersect(a)
		return nil
	})
	r.setLayer("rangeset.intersect_ns", "ns", float64(dt))
	for _, n := range []int{2, 3, 4} {
		var d *dist.Distribution
		dt, err := r.timed("dist.Block", parent, op, 3, func() error {
			var err error
			d, err = dist.Block(g, []int{n})
			return err
		})
		if err != nil {
			return err
		}
		r.setLayer(fmt.Sprintf("dist.block_us.t%d", n), "us", us(dt))
		dt, err = r.timed("dist.Distribution.Validate", parent, op, 3, d.Validate)
		if err != nil {
			return err
		}
		r.setLayer(fmt.Sprintf("dist.validate_us.t%d", n), "us", us(dt))
	}

	// One piece of the iterated array as the checkpoint layer sees it.
	ref := newReference(r.s, r.seed)
	ref.checksum(8)
	elems := r.s.pieceBytes / 8
	piece := array.EncodeElems(ref.u[:elems])
	var enc []byte
	dt, err = r.timed("codec.Encode", parent, op, 20, func() error {
		var err error
		enc, err = codec.Encode(codec.Flate, enc[:0], piece)
		return err
	})
	if err != nil {
		return err
	}
	r.setLayer("codec.encode_mb_s", "MB/s", float64(len(piece))/dt.Seconds()/1e6)
	out := make([]byte, len(piece))
	dt, err = r.timed("codec.Decode", parent, op, 20, func() error { return codec.Decode(codec.Flate, out, enc) })
	if err != nil {
		return err
	}
	r.setLayer("codec.decode_mb_s", "MB/s", float64(len(piece))/dt.Seconds()/1e6)

	sg := seg.New()
	iter, x := 7, 1.5
	sg.Register("iter", &iter)
	sg.Register("x", &x)
	var blob []byte
	dt, err = r.timed("seg.Segment.Encode", parent, op, microReps/10, func() error {
		var err error
		blob, err = sg.Encode()
		return err
	})
	if err != nil {
		return err
	}
	r.setLayer("seg.encode_us", "us", us(dt))
	dt, err = r.timed("seg.Segment.Decode", parent, op, microReps/10, func() error { return sg.Decode(blob) })
	if err != nil {
		return err
	}
	r.setLayer("seg.decode_us", "us", us(dt))

	tier := ckpt.NewMemTier()
	crc := crc64.Checksum(piece, crc64.MakeTable(crc64.ECMA))
	i := 0
	dt, _ = r.timed("ckpt.MemTier.Publish", parent, op, 20, func() error {
		tier.Publish([]int{0, 1}, "probe.g0", "u", i, piece, crc)
		i++
		return nil
	})
	r.setLayer("ckpt.tier_publish_us", "us", us(dt))
	var ok bool
	dt, _ = r.timed("ckpt.MemTier.Check", parent, op, 20, func() error {
		ok = tier.Check("probe.g0", "u", 0, crc)
		return nil
	})
	r.setLayer("ckpt.tier_check_us", "us", us(dt))
	dt, _ = r.timed("ckpt.MemTier.Lookup", parent, op, 20, func() error {
		_, ok = tier.Lookup("probe.g0", "u", 0, crc)
		return nil
	})
	r.setLayer("ckpt.tier_lookup_us", "us", us(dt))
	if !ok {
		return fmt.Errorf("tier probe: published piece not found")
	}
	return nil
}

// probeStart times drms.Start to the first SOP entered (the prologue:
// task spawn, distributions, array allocation and fill).
func (r *benchRun) probeStart(parent, op int64, n int) error {
	var ds []time.Duration
	for k := 0; k < 3; k++ {
		fresh()
		var took time.Duration
		_, end := r.tr.begin("drms.Start", parent, op)
		start := time.Now()
		err := drms.Run(drms.Config{Tasks: n, FS: newFS(), Stream: r.streamOpts()}, func(t *drms.Task) error {
			if _, err := declare(t, r.s); err != nil {
				return err
			}
			if t.Rank() == 0 {
				took = time.Since(start)
			}
			return nil
		})
		end(1)
		if err != nil {
			return err
		}
		ds = append(ds, took)
	}
	r.setLayer("drms.start_ms", "ms", ms(median(ds)))
	return nil
}

// probeCollective times the collective layers inside one n-task run:
// msg collectives, array redistribution, the stream pipeline and the
// checkpoint engine's write, read, partial-read and verify paths.
func (r *benchRun) probeCollective(parent, op int64, n int) error {
	fs := newFS()
	tier := ckpt.NewMemTier()
	o := r.streamOpts()
	g := rangeset.NewSlice(rangeset.Span(0, r.s.elems-1))
	return msg.Run(n, func(c *msg.Comm) error {
		me := c.Rank()
		timed := func(name string, calls int, f func() error) (time.Duration, error) {
			if err := c.Barrier(); err != nil {
				return 0, err
			}
			if me != 0 {
				for i := 0; i < calls; i++ {
					if err := f(); err != nil {
						return 0, err
					}
				}
				return 0, nil
			}
			return r.timed(name, parent, op, calls, f)
		}
		put := func(string, string, float64) {} // only rank 0 reports
		if me == 0 {
			put = r.setLayer
		}

		d, err := dist.Block(g, []int{n})
		if err != nil {
			return err
		}
		u, err := array.New[float64](c, "u", d)
		if err != nil {
			return err
		}
		tab, err := array.New[int32](c, "tab", d)
		if err != nil {
			return err
		}
		u.Fill(func(x []int) float64 { return initU(x[0]) })
		tab.Fill(func(x []int) int32 { return initTab(x[0]) })

		dt, err := timed("msg.Comm.AllreduceF64", microReps, func() error {
			_, err := c.AllreduceF64(1, math.Max)
			return err
		})
		if err != nil {
			return err
		}
		put("msg.allreduce_us", "us", us(dt))
		word := make([]byte, 8)
		binary.LittleEndian.PutUint64(word, uint64(r.seed))
		dt, err = timed("msg.Comm.Bcast", microReps, func() error {
			_, err := c.Bcast(0, word)
			return err
		})
		if err != nil {
			return err
		}
		put("msg.bcast_us", "us", us(dt))
		// Each task sends one piece to its right neighbour only: the
		// sparse exchange of a redistribution round.
		send := make([][]byte, n)
		to, from := make([]bool, n), make([]bool, n)
		send[(me+1)%n] = make([]byte, r.s.pieceBytes)
		to[(me+1)%n], from[(me+n-1)%n] = true, true
		dt, err = timed("msg.Comm.AlltoallSparse", microReps/10, func() error {
			_, err := c.AlltoallSparse(send, to, from)
			return err
		})
		if err != nil {
			return err
		}
		put("msg.alltoall_sparse_us", "us", us(dt))

		// Block -> piece-sized block-cyclic: the shape of one stream
		// round's redistribution. Cold is the first call after the plan
		// caches were flushed; warm repeats it.
		dc, err := dist.BlockCyclic(g, []int{n}, []int{r.s.pieceBytes / 8})
		if err != nil {
			return err
		}
		dst, err := array.New[float64](c, "dst", dc)
		if err != nil {
			return err
		}
		if me == 0 {
			fresh()
		}
		dt, err = timed("array.Assign.cold", 1, func() error { return array.Assign(dst, u) })
		if err != nil {
			return err
		}
		put("array.assign_cold_ms", "ms", ms(dt))
		dt, err = timed("array.Assign.warm", 5, func() error { return array.Assign(dst, u) })
		if err != nil {
			return err
		}
		put("array.assign_warm_ms", "ms", ms(dt))

		dt, err = timed("stream.SectionSums", 3, func() error {
			_, err := stream.SectionSums(u, g, o)
			return err
		})
		if err != nil {
			return err
		}
		put("stream.section_sums_ms", "ms", ms(dt))
		dt, err = timed("stream.Write.full", 3, func() error {
			_, err := stream.Write(u, g, fs, "probe.stream", o)
			return err
		})
		if err != nil {
			return err
		}
		put("stream.write_ms.full", "ms", ms(dt))
		dirty := o
		dirty.Pieces = r.dirtyPieces(o)
		dt, err = timed("stream.Write.dirty", 3, func() error {
			_, err := stream.Write(u, g, fs, "probe.stream", dirty)
			return err
		})
		if err != nil {
			return err
		}
		put("stream.write_ms.dirty", "ms", ms(dt))
		dt, err = timed("stream.Read", 3, func() error {
			_, err := stream.Read(u, g, fs, "probe.stream", o)
			return err
		})
		if err != nil {
			return err
		}
		put("stream.read_ms", "ms", ms(dt))

		sg := seg.New()
		iter := 0
		sg.Register("iter", &iter)
		refs := []ckpt.ArrayRef{ckpt.Ref(u), ckpt.Ref(tab)}
		dt, err = timed("ckpt.WriteDRMSChained", 1, func() error {
			_, err := ckpt.WriteDRMSChained(fs, "probe.g0", c, sg, refs, o,
				ckpt.ChainOptions{Codec: ckpt.CodecFlate, Tier: tier, Replicas: 1})
			return err
		})
		if err != nil {
			return err
		}
		put("ckpt.write_chained_ms", "ms", ms(dt))
		dt, err = timed("ckpt.ReadDRMSOpts.mem", 2, func() error {
			_, _, err := ckpt.ReadDRMSOpts(fs, "probe.g0", c, sg, refs, o, ckpt.RestoreOptions{Tier: tier})
			return err
		})
		if err != nil {
			return err
		}
		put("ckpt.read_mem_ms", "ms", ms(dt))
		dt, err = timed("ckpt.ReadDRMSOpts.pfs", 2, func() error {
			_, _, err := ckpt.ReadDRMSOpts(fs, "probe.g0", c, sg, refs, o, ckpt.RestoreOptions{})
			return err
		})
		if err != nil {
			return err
		}
		put("ckpt.read_pfs_ms", "ms", ms(dt))
		victim := []int{int(uint64(r.seed) % uint64(n))}
		dt, err = timed("ckpt.NeededPieces", microReps/10, func() error {
			ckpt.NeededPieces(refs[0], n, victim, o)
			return nil
		})
		if err != nil {
			return err
		}
		put("ckpt.needed_pieces_us", "us", us(dt))
		dt, err = timed("ckpt.ReadDRMSPartial", 2, func() error {
			_, _, err := ckpt.ReadDRMSPartial(fs, "probe.g0", c, sg, refs, o, ckpt.PartialRestoreOptions{
				Tier: tier, Ranks: victim, NeedSegment: me == victim[0]})
			return err
		})
		if err != nil {
			return err
		}
		put("ckpt.read_partial_ms", "ms", ms(dt))
		if err := c.Barrier(); err != nil {
			return err
		}
		if me == 0 {
			dt, err = r.timed("ckpt.Verify", parent, op, 3, func() error { return ckpt.Verify(fs, "probe.g0", 0) })
			if err != nil {
				return err
			}
			r.setLayer("ckpt.verify_ms", "ms", ms(dt))
			dt, err = r.timed("ckpt.ResolveVerifiedTier", parent, op, 3, func() error {
				chosen, _, ok, err := ckpt.ResolveVerifiedTier(fs, tier, "probe")
				if err == nil && (!ok || chosen != "probe.g0") {
					err = fmt.Errorf("resolved %q, want probe.g0", chosen)
				}
				return err
			})
			if err != nil {
				return err
			}
			r.setLayer("ckpt.resolve_verified_ms", "ms", ms(dt))
		}
		return c.Barrier()
	})
}

// dirtyPieces lists the full-plan pieces iteration 0's windows touch:
// the filtered write a delta checkpoint of this state makes.
func (r *benchRun) dirtyPieces(o stream.Options) []int {
	perPiece := r.s.pieceBytes / 8
	seen := map[int]bool{}
	var out []int
	for w := 0; w < r.s.windows; w++ {
		lo := r.s.windowAt(r.seed, 0, w)
		for p := lo / perPiece; p <= (lo+r.s.window-1)/perPiece; p++ {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Ints(out)
	return out
}

// layerDeltas turns the focus window's obs deltas into per-layer
// metrics, and adds run-wide fallback and recovery counts.
func (r *benchRun) layerDeltas(run map[string]float64) {
	w, sops := r.win, float64(max(r.sops, 1))
	ratio := func(hits, misses string) float64 {
		if t := w[hits] + w[misses]; t > 0 {
			return w[hits] / t
		}
		return 1
	}
	r.setLayer("array.plan_hit_ratio", "ratio", ratio("drms_array_plan_cache_hits_total", "drms_array_plan_cache_misses_total"))
	r.setLayer("stream.plan_hit_ratio", "ratio", ratio("drms_stream_plan_cache_hits_total", "drms_stream_plan_cache_misses_total"))
	r.setLayer("msg.collectives_per_sop", "count", w["drms_msg_collectives_total"]/sops)
	r.setLayer("msg.send_bytes_per_sop", "B", w["drms_msg_send_bytes_total"]/sops)
	r.setLayer("stream.net_bytes_per_sop", "B", w["drms_stream_net_bytes_total"]/sops)
	stall := 0.0
	if s := w["drms_stream_write_seconds.sum"]; s > 0 {
		stall = w["drms_stream_write_stall_seconds.sum"] / s
	}
	r.setLayer("stream.write_stall_share", "share", stall)
	codecRatio := 1.0
	if in := w["drms_ckpt_codec_in_bytes_total"]; in > 0 {
		codecRatio = w["drms_ckpt_codec_out_bytes_total"] / in
	}
	r.setLayer("codec.ratio", "ratio", codecRatio)
	r.setLayer("pfs.write_bytes_per_sop", "B", float64(r.pfsWritten)/sops)
	r.setLayer("pfs.read_bytes_per_restore", "B", float64(r.pfsRead)/float64(max(r.restores, 1)))
	share := 0.0
	if t := r.hotServed + r.hotFellBack; t > 0 {
		share = float64(r.hotServed) / float64(t)
	}
	r.setLayer("ckpt.tier_mem_share", "share", share)
	r.setLayer("drms.partial_fallbacks", "count", run["drms_coord_partial_fallbacks_total"])
	r.setLayer("drms.resize_fallbacks", "count", run["drms_coord_resize_fallbacks_total"])
	r.setLayer("coord.recovery_attempts", "count", run["drms_coord_recovery_attempts_total"])
	r.setLayer("coord.open_us", "us", us(r.tr.per("coord.RC.OpenApp")))
	r.setLayer("coord.checkpoint_op_us", "us", us(r.tr.per("coord.RC.CheckpointApp")))
}
