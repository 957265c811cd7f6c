package dist

import (
	"fmt"
	"slices"
	"testing"

	"drms/internal/rangeset"
)

// The constructors cut axes into sub-ranges; these references build the
// same per-row sections the way the model defines them — as explicit
// element lists — so the two must be set-equal on every axis shape.

func refBlockRows(ax rangeset.Range, k int) [][]int {
	n := ax.Size()
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = n / k
		if i < n%k {
			sizes[i]++
		}
	}
	return refGenBlockRows(ax, sizes)
}

func refGenBlockRows(ax rangeset.Range, sizes []int) [][]int {
	rows := make([][]int, len(sizes))
	pos := 0
	for i, sz := range sizes {
		for j := 0; j < sz; j++ {
			rows[i] = append(rows[i], ax.At(pos+j))
		}
		pos += sz
	}
	return rows
}

func refCyclicRows(ax rangeset.Range, g, b int) [][]int {
	rows := make([][]int, g)
	for pos := 0; pos < ax.Size(); pos++ {
		row := pos / b % g
		rows[row] = append(rows[row], ax.At(pos))
	}
	return rows
}

// checkRows asserts that task t's section of d is, on every axis, the
// reference row its grid coordinate selects.
func checkRows(t *testing.T, what string, d *Distribution, grid []int, rows [][][]int) {
	t.Helper()
	coord := make([]int, len(grid))
	for task := 0; task < d.Tasks(); task++ {
		for i := range grid {
			ax := d.Assigned(task).Axis(i)
			want := rows[i][coord[i]]
			if !slices.Equal(ax.Elements(), want) {
				t.Fatalf("%s: task %d axis %d = %v, want %v", what, task, i, ax, want)
			}
			if !ax.Equal(rangeset.List(want...)) {
				t.Fatalf("%s: task %d axis %d = %v is not in canonical form", what, task, i, ax)
			}
		}
		for i := range grid {
			if coord[i]++; coord[i] < grid[i] {
				break
			}
			coord[i] = 0
		}
	}
}

func TestSectionsMatchElementLists(t *testing.T) {
	axes := []rangeset.Range{
		rangeset.Span(0, 22),
		rangeset.Reg(3, 40, 3),
		rangeset.List(1, 2, 5, 9, 10, 11, 20, 21, 22, 30, 31),
		rangeset.Single(7),
	}
	for _, a0 := range axes {
		for _, a1 := range axes {
			g := rangeset.NewSlice(a0, a1)
			name := fmt.Sprintf("%v", g)
			for _, grid := range [][]int{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {2, 2}} {
				if grid[0] > a0.Size() || grid[1] > a1.Size() {
					continue
				}
				d, err := Block(g, grid)
				if err != nil {
					t.Fatalf("%s: Block %v: %v", name, grid, err)
				}
				checkRows(t, name+" block", d, grid, [][][]int{
					refBlockRows(a0, grid[0]), refBlockRows(a1, grid[1])})
			}
			for _, b := range []int{1, 2, 3, 5} {
				for _, grid := range [][]int{{1, 1}, {2, 1}, {3, 2}, {4, 1}} {
					d, err := BlockCyclic(g, grid, []int{b, b + 1})
					if err != nil {
						t.Fatalf("%s: BlockCyclic %v/%d: %v", name, grid, b, err)
					}
					checkRows(t, fmt.Sprintf("%s cyclic %v/%d", name, grid, b), d, grid, [][][]int{
						refCyclicRows(a0, grid[0], b), refCyclicRows(a1, grid[1], b+1)})
				}
			}
			sizes := [][]int{{a0.Size()}, {a1.Size()}}
			if a0.Size() > 2 {
				sizes[0] = []int{1, a0.Size() - 3, 2}
			}
			d, err := GenBlock(g, sizes)
			if err != nil {
				t.Fatalf("%s: GenBlock %v: %v", name, sizes, err)
			}
			checkRows(t, name+" gen-block", d, []int{len(sizes[0]), len(sizes[1])}, [][][]int{
				refGenBlockRows(a0, sizes[0]), refGenBlockRows(a1, sizes[1])})
		}
	}
}

func BenchmarkDistBlock(b *testing.B) {
	g := rangeset.NewSlice(rangeset.Span(0, 1<<18-1))
	for _, tasks := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("t%d", tasks), func(b *testing.B) {
			for b.Loop() {
				if _, err := Block(g, []int{tasks}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
