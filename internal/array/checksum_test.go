package array

import (
	"fmt"
	"math"
	"testing"

	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// checksumDists builds, for n tasks, every distribution shape the
// windowed Checksum must handle: block, cyclic, block-cyclic, gen-block
// and irregular (with unassigned holes), over 1-D and 2-D spaces.
func checksumDists(n int) (map[string]*dist.Distribution, error) {
	line := rangeset.NewSlice(rangeset.Span(0, 40))
	box := rangeset.Box([]int{0, 0}, []int{8, 6})
	gen := make([]int, n) // uneven blocks summing to 41
	for i := range gen {
		gen[i] = 1 + i
	}
	gen[n-1] += 41 - n*(n+1)/2
	// Irregular: element i to task i*i mod n, every 11th+5 unassigned;
	// 2-D: rows dealt by i*i mod n, columns 3 and 6 unassigned.
	lines := make([][]int, n)
	rows := make([][]int, n)
	for i := 0; i <= 40; i++ {
		if i%11 != 5 {
			lines[i*i%n] = append(lines[i*i%n], i)
		}
		if i <= 8 {
			rows[i*i%n] = append(rows[i*i%n], i)
		}
	}
	irr1, irr2 := make([]rangeset.Slice, n), make([]rangeset.Slice, n)
	for q := 0; q < n; q++ {
		irr1[q] = rangeset.NewSlice(rangeset.List(lines[q]...))
		irr2[q] = rangeset.NewSlice(rangeset.List(rows[q]...), rangeset.List(0, 1, 2, 4, 5))
	}
	grid := dist.FactorGrid(n, 2, box.Shape())
	out := map[string]*dist.Distribution{}
	for name, build := range map[string]func() (*dist.Distribution, error){
		"1d-block":        func() (*dist.Distribution, error) { return dist.Block(line, []int{n}) },
		"1d-cyclic":       func() (*dist.Distribution, error) { return dist.BlockCyclic(line, []int{n}, []int{1}) },
		"1d-block-cyclic": func() (*dist.Distribution, error) { return dist.BlockCyclic(line, []int{n}, []int{3}) },
		"1d-gen-block":    func() (*dist.Distribution, error) { return dist.GenBlock(line, [][]int{gen}) },
		"1d-irregular":    func() (*dist.Distribution, error) { return dist.Irregular(line, irr1, nil) },
		"2d-block":        func() (*dist.Distribution, error) { return dist.Block(box, grid) },
		"2d-block-cyclic": func() (*dist.Distribution, error) { return dist.BlockCyclic(box, grid, []int{2, 1}) },
		"2d-irregular":    func() (*dist.Distribution, error) { return dist.Irregular(box, irr2, nil) },
	} {
		d, err := build()
		if err != nil {
			return nil, fmt.Errorf("%s over %d tasks: %w", name, n, err)
		}
		out[name] = d
	}
	return out, nil
}

// fullGatherSum is the reference Checksum: the whole array gathered at
// task 0 and summed in global column-major order.
func fullGatherSum[T Elem](a *Array[T]) (float64, error) {
	full, err := a.Gather(0, rangeset.ColMajor)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, v := range full {
		sum += float64(v)
	}
	return sum, nil
}

// TestChecksumWindowedMatchesFullGather: whatever the window — one
// element, sizes that split runs mid-way and leave some tasks with
// nothing to send, or one window for the whole array — the windowed sum
// is bitwise the full-gather sum, at every task.
func TestChecksumWindowedMatchesFullGather(t *testing.T) {
	for n := 1; n <= 5; n++ {
		dists, err := checksumDists(n)
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range dists {
			mustRun(t, n, func(c *msg.Comm) {
				f, err := New[float64](c, "u", d)
				if err != nil {
					panic(err)
				}
				// Magnitudes spread over 16 decades, so any change in the
				// order or grouping of the adds changes the result.
				f.Fill(func(cd []int) float64 {
					v := coordVal(cd)
					return math.Sin(v) * math.Pow(10, float64(int(v)%17))
				})
				i, err := New[int32](c, "ids", d)
				if err != nil {
					panic(err)
				}
				i.Fill(func(cd []int) int32 { return int32(coordVal(cd)) })
				wantF, err := fullGatherSum(f)
				if err != nil {
					panic(err)
				}
				wantI, err := fullGatherSum(i)
				if err != nil {
					panic(err)
				}
				for _, w := range []int{1, 2, 3, 7, 16, 50, 1 << 16} {
					gotF, err := f.checksum(w)
					if err != nil {
						panic(err)
					}
					gotI, err := i.checksum(w)
					if err != nil {
						panic(err)
					}
					if c.Rank() == 0 && (math.Float64bits(gotF) != math.Float64bits(wantF) || gotI != wantI) {
						panic(fmt.Sprintf("%d tasks %s window %d: float64 %v int32 %v, full gather %v %v",
							n, name, w, gotF, gotI, wantF, wantI))
					}
					lo, err := c.AllreduceF64(gotF, msg.Min)
					if err != nil {
						panic(err)
					}
					if math.Float64bits(lo) != math.Float64bits(gotF) {
						panic(fmt.Sprintf("%d tasks %s window %d: tasks disagree on the checksum", n, name, w))
					}
				}
			})
		}
	}
}

// BenchmarkArrayChecksum sums the 2^18-element block shape over 4 tasks,
// windowed and by full gather.
func BenchmarkArrayChecksum(b *testing.B) {
	g := rangeset.NewSlice(rangeset.Span(0, 1<<18-1))
	d, err := dist.Block(g, []int{4})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		sum  func(*Array[float64]) (float64, error)
	}{{"windowed", (*Array[float64]).Checksum}, {"full-gather", fullGatherSum[float64]}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(g.Size()) * 8)
			mustRun(b, 4, func(c *msg.Comm) {
				a, err := New[float64](c, "u", d)
				if err != nil {
					panic(err)
				}
				a.Fill(func(cd []int) float64 { return float64(cd[0]) })
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for k := 0; k < b.N; k++ {
					if _, err := bc.sum(a); err != nil {
						panic(err)
					}
				}
			})
		})
	}
}
