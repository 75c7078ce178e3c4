// Package coding implements the two competitor reliability schemes the
// related work positions against WiTAG's selective-repeat ARQ: an
// LT-style rateless/fountain code (FlexScatter's adaptive rateless coding
// under dynamic traffic) and a Reed-Solomon erasure code over GF(256)
// whose parity budget tracks observed ambient-traffic loss (GuardRider's
// RS coding sized to ambient statistics). Both are packaged as transfer
// modes that drive a core.System exactly like link.Transferer does, so
// the three schemes can be compared over identical channel worlds.
//
// Layering: a transfer payload is cut into fixed-size source blocks
// (fountain) or shards (RS); every encoded symbol/shard rides in one
// CRC-protected core.Codec frame spanning however many query rounds its
// bits need. The per-frame CRC verdict converts channel corruption into
// symbol *erasures* — exactly the model both codes are built for.
package coding

import "fmt"

// GF(256) arithmetic with the AES/RS-standard primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D) and generator element 2. Log/exp
// tables are built once at package init; multiply and divide are two
// table lookups and one conditional, which keeps the RS matrix math off
// every profile's hot path.

const gfPoly = 0x11D

var (
	gfExpTab [512]byte // doubled so mul can skip the mod-255 reduction
	gfLogTab [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExpTab[i] = byte(x)
		gfLogTab[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExpTab[i] = gfExpTab[i-255]
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExpTab[int(gfLogTab[a])+int(gfLogTab[b])]
}

// gfDiv divides a by b; division by zero is the caller's bug and panics
// like integer division would.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("coding: GF(256) division by zero")
	}
	if a == 0 {
		return 0
	}
	return gfExpTab[int(gfLogTab[a])+255-int(gfLogTab[b])]
}

// gfInv returns the multiplicative inverse of a.
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfExp returns the generator raised to the n-th power (n ≥ 0).
func gfExp(n int) byte { return gfExpTab[n%255] }

// gfMatMul multiplies the r×k matrix m by the k column vectors held
// row-major in src (each of length n bytes), accumulating into dst
// (length r, each row n bytes). dst rows must be zeroed by the caller.
func gfMatMul(dst, src [][]byte, m [][]byte) {
	for r, row := range m {
		gfRowMul(dst[r], row, src)
	}
}

// gfRowMul accumulates into out the combination of the vectors src with
// the coefficients row: out ^= Σ row[c]·src[c].
func gfRowMul(out, row []byte, src [][]byte) {
	for c, coef := range row {
		if coef == 0 {
			continue
		}
		in := src[c]
		if coef == 1 {
			for i := range out {
				out[i] ^= in[i]
			}
			continue
		}
		lc := int(gfLogTab[coef])
		for i := range out {
			if in[i] != 0 {
				out[i] ^= gfExpTab[lc+int(gfLogTab[in[i]])]
			}
		}
	}
}

// gfMatrix returns a zeroed rows×cols matrix, its rows cut from one
// backing array.
func gfMatrix(rows, cols int) [][]byte {
	var m shardSet
	return m.resize(rows, cols)
}

// shardSet is a matrix or a block's shards, its rows cut from one backing
// array that is reused while it is large enough.
type shardSet struct {
	buf    []byte
	shards [][]byte
}

// resize returns the set as n rows of size bytes. Their contents are
// whatever the storage held; fresh storage is zeroed.
func (s *shardSet) resize(n, size int) [][]byte {
	if cap(s.buf) < n*size {
		s.buf = make([]byte, n*size)
	}
	if cap(s.shards) < n {
		s.shards = make([][]byte, n)
	}
	s.shards = s.shards[:n]
	for i := range s.shards {
		s.shards[i] = s.buf[i*size : (i+1)*size : (i+1)*size]
	}
	return s.shards
}

// gfInvertMatrix inverts the square matrix m in place by Gauss–Jordan
// elimination, returning an error when m is singular. m is destroyed on
// failure.
func gfInvertMatrix(m [][]byte) error {
	inv := gfMatrix(len(m), len(m))
	if err := gfInvertInto(inv, m); err != nil {
		return err
	}
	copy(m, inv)
	return nil
}

// gfInvertInto writes the inverse of the square matrix m into inv, a
// matrix of m's size whose contents are overwritten, by Gauss–Jordan
// elimination; m is destroyed. It returns an error when m is singular.
// Row swaps permute the row slices of both matrices.
func gfInvertInto(inv, m [][]byte) error {
	n := len(m)
	for i := range inv {
		if len(m[i]) != n {
			return fmt.Errorf("coding: matrix row %d has %d columns, want %d", i, len(m[i]), n)
		}
		clear(inv[i])
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if m[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return fmt.Errorf("coding: singular matrix at column %d", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		if p := m[col][col]; p != 1 {
			ip := gfInv(p)
			for c := 0; c < n; c++ {
				m[col][c] = gfMul(m[col][c], ip)
				inv[col][c] = gfMul(inv[col][c], ip)
			}
		}
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for c := 0; c < n; c++ {
				m[r][c] ^= gfMul(f, m[col][c])
				inv[r][c] ^= gfMul(f, inv[col][c])
			}
		}
	}
	return nil
}
