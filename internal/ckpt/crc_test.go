package ckpt

import (
	"math/rand"
	"testing"
)

// crcCombineSquaring is the per-call square-and-multiply form of
// crcCombine (zlib's original crc32_combine, ported to CRC-64/ECMA): it
// rebuilds the zero-bit operator and squares it up on every call. The
// table-driven crcCombine must agree with it bit for bit.
func crcCombineSquaring(crc1, crc2 uint64, len2 int64) uint64 {
	if len2 <= 0 {
		return crc1
	}
	var even, odd [64]uint64
	odd[0] = 0xC96C5795D7870F42
	row := uint64(1)
	for n := 1; n < 64; n++ {
		odd[n] = row
		row <<= 1
	}
	gf2MatrixSquare(&even, &odd)
	gf2MatrixSquare(&odd, &even)
	for {
		gf2MatrixSquare(&even, &odd)
		if len2&1 != 0 {
			crc1 = gf2MatrixTimes(&even, crc1)
		}
		if len2 >>= 1; len2 == 0 {
			break
		}
		gf2MatrixSquare(&odd, &even)
		if len2&1 != 0 {
			crc1 = gf2MatrixTimes(&odd, crc1)
		}
		if len2 >>= 1; len2 == 0 {
			break
		}
	}
	return crc1 ^ crc2
}

func TestCRCCombineTableMatchesSquaring(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lens := []int64{0, 1, 1 << 40, 1<<63 - 1}
	for k := 1; k < 63; k++ {
		lens = append(lens, 1<<k-1, 1<<k+1)
	}
	for i := 0; i < 200; i++ {
		lens = append(lens, rng.Int63n(1<<(1+rng.Intn(62))))
	}
	for _, n := range lens {
		c1, c2 := rng.Uint64(), rng.Uint64()
		if got, want := crcCombine(c1, c2, n), crcCombineSquaring(c1, c2, n); got != want {
			t.Fatalf("len2 %d: table %016x, squaring %016x", n, got, want)
		}
	}
}

func BenchmarkCRCCombine(b *testing.B) {
	for _, bc := range []struct {
		name    string
		combine func(uint64, uint64, int64) uint64
	}{{"table", crcCombine}, {"squaring", crcCombineSquaring}} {
		b.Run(bc.name, func(b *testing.B) {
			for b.Loop() {
				bc.combine(0x1234, 0x5678, 32<<10)
			}
		})
	}
}
