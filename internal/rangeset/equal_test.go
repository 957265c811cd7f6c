package rangeset

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// anyRange is a testing/quick generator over every shape Equal tells
// apart: empty ranges, single elements built with arbitrary steps,
// regular progressions and irregular lists, drawn from small universes
// so that independently generated pairs are often equal, and half the
// time rebuilt through a different constructor.
type anyRange struct{ R Range }

func (anyRange) Generate(rng *rand.Rand, _ int) reflect.Value {
	var r Range
	switch rng.Intn(5) {
	case 0:
		r = Reg(5, 4, 1+rng.Intn(4)) // empty, any step
	case 1:
		v := rng.Intn(5)
		s := 1 + rng.Intn(6)
		r = Reg(v, v+rng.Intn(s), s) // one element, step up to 6
	case 2:
		s := 1 + rng.Intn(3)
		lo := rng.Intn(4)
		r = Reg(lo, lo+rng.Intn(4)*s, s)
	case 3:
		r = randomRange(rng)
	default:
		var v []int
		for x := 0; x < 7; x++ {
			if rng.Intn(2) == 0 {
				v = append(v, x)
			}
		}
		r = List(v...)
	}
	switch rng.Intn(4) {
	case 1:
		r = List(r.Elements()...)
	case 2:
		r = r.Shift(9).Shift(-9)
	case 3:
		r = r.Intersect(Span(-100, 100))
	}
	return reflect.ValueOf(anyRange{r})
}

// TestEqualMatchesElementwise: the O(1) and slice-compare paths of Equal
// agree with comparing the element sequences.
func TestEqualMatchesElementwise(t *testing.T) {
	equalPairs := 0
	f := func(a, b anyRange) bool {
		want := slices.Equal(a.R.Elements(), b.R.Elements())
		if want {
			equalPairs++
		}
		return a.R.Equal(b.R) == want && b.R.Equal(a.R) == want && a.R.Equal(a.R)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	if equalPairs < 100 {
		t.Fatalf("only %d equal pairs generated; the equal branch is barely exercised", equalPairs)
	}
}

func TestEqualSingleElementSteps(t *testing.T) {
	a, b := Reg(4, 4, 1), Reg(4, 9, 7) // both {4}
	if !a.Equal(b) || !b.Equal(Single(4)) || !List(4).Equal(a) {
		t.Fatalf("{4} built with different steps compares unequal: %v %v", a, b)
	}
	if Reg(4, 11, 7).Equal(Reg(4, 8, 4)) {
		t.Fatal("{4 11} equals {4 8}")
	}
}

// TestIrregularIsNeverProgression pins the canonical-form invariant
// Equal relies on, over every constructor that can produce an irregular
// range.
func TestIrregularIsNeverProgression(t *testing.T) {
	canonical := func(r Range) bool {
		if r.IsRegular() {
			return true
		}
		e := r.Elements()
		if len(e) < 3 {
			return false
		}
		for i := 2; i < len(e); i++ {
			if e[i]-e[i-1] != e[1]-e[0] {
				return true
			}
		}
		return false
	}
	f := func(a, b anyRange, i, j uint8) bool {
		lo, hi := a.R.Halves()
		n := a.R.Size()
		x, y := int(i)%(n+1), int(j)%(n+1)
		for _, r := range []Range{a.R, a.R.Intersect(b.R), a.R.Shift(3), lo, hi, a.R.Sub(min(x, y), max(x, y))} {
			if !canonical(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestSubMatchesElements(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for it := 0; it < 2000; it++ {
		r := randomRange(rng)
		n := r.Size()
		i := rng.Intn(n + 1)
		j := i + rng.Intn(n-i+1)
		got := r.Sub(i, j).Elements()
		if want := r.Elements()[i:j]; !slices.Equal(got, want) {
			t.Fatalf("%v.Sub(%d, %d) = %v, want %v", r, i, j, got, want)
		}
	}
}

func BenchmarkRangeEqual(b *testing.B) {
	b.Run("regular", func(b *testing.B) {
		x, y := Span(0, 1<<18-1), Reg(0, 1<<18-1, 1)
		for b.Loop() {
			x.Equal(y)
		}
	})
	b.Run("irregular", func(b *testing.B) {
		v := make([]int, 1024)
		for i := range v {
			v[i] = i * i
		}
		x, y := List(v...), List(v...)
		for b.Loop() {
			x.Equal(y)
		}
	})
}
