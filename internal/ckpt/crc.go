package ckpt

import (
	"hash/crc64"
)

// Checkpoint integrity: every array file and segment file carries a
// CRC-64/ECMA of its full contents in the metadata, computed *during* the
// checkpoint without re-reading anything. Parallel streaming writes the
// pieces of one file from many tasks concurrently, so per-piece CRCs are
// gathered and combined with the zlib matrix technique: the CRC of a
// concatenation A||B is M(len B)·crc(A) xor crc(B), where M is the GF(2)
// matrix advancing a CRC past len(B) zero bytes. Verify re-reads files
// sequentially and compares.

var crcTable = crc64.MakeTable(crc64.ECMA)

// crcOf returns the CRC-64/ECMA of data.
func crcOf(data []byte) uint64 { return crc64.Checksum(data, crcTable) }

// crcZeros returns the CRC of n zero bytes in O(log n), by binary
// decomposition over the concatenation identity (the pre/post inversion
// of CRC-64 makes runs of zeros contribute non-trivially, so this cannot
// be a bare matrix advance of the empty CRC).
func crcZeros(n int64) uint64 {
	var acc uint64 // CRC of the empty string
	blockCRC := crcOf([]byte{0})
	blockLen := int64(1)
	for n > 0 {
		if n&1 != 0 {
			acc = crcCombine(acc, blockCRC, blockLen)
		}
		n >>= 1
		if n > 0 {
			blockCRC = crcCombine(blockCRC, blockCRC, blockLen)
			blockLen *= 2
		}
	}
	return acc
}

// gf2MatrixTimes multiplies the GF(2) 64x64 matrix m by vector v.
func gf2MatrixTimes(m *[64]uint64, v uint64) uint64 {
	var sum uint64
	for i := 0; v != 0; i, v = i+1, v>>1 {
		if v&1 != 0 {
			sum ^= m[i]
		}
	}
	return sum
}

// gf2MatrixSquare sets sq to m·m.
func gf2MatrixSquare(sq, m *[64]uint64) {
	for i := 0; i < 64; i++ {
		sq[i] = gf2MatrixTimes(m, m[i])
	}
}

// zeroOps[k] is the GF(2) operator advancing a CRC past 2^k zero bytes
// (the matrix form of zlib's x2nmodp table), built once: crcCombine then
// costs one matrix-vector product per set bit of the length. 63 entries
// cover every positive int64 length.
var zeroOps = func() (ops [63][64]uint64) {
	// The operator for one zero bit: shift with polynomial feedback
	// (reflected form). Three squarings make it one zero byte.
	var bit, two, four [64]uint64
	bit[0] = 0xC96C5795D7870F42 // CRC-64/ECMA polynomial, reflected
	row := uint64(1)
	for n := 1; n < 64; n++ {
		bit[n] = row
		row <<= 1
	}
	gf2MatrixSquare(&two, &bit)
	gf2MatrixSquare(&four, &two)
	gf2MatrixSquare(&ops[0], &four)
	for k := 1; k < len(ops); k++ {
		gf2MatrixSquare(&ops[k], &ops[k-1])
	}
	return ops
}()

// crcCombine returns the CRC of the concatenation of two byte sequences
// given their individual CRCs and the length of the second (the zlib
// crc32_combine algorithm, ported to the reflected CRC-64/ECMA used by
// hash/crc64).
func crcCombine(crc1, crc2 uint64, len2 int64) uint64 {
	if len2 <= 0 {
		return crc1
	}
	for k := 0; len2 != 0; k, len2 = k+1, len2>>1 {
		if len2&1 != 0 {
			crc1 = gf2MatrixTimes(&zeroOps[k], crc1)
		}
	}
	return crc1 ^ crc2
}
