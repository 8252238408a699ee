// Package erasure implements systematic k-of-n Reed–Solomon coding over
// GF(2⁸), the redundancy alternative to whole-object replication on the
// home tier: an object split into k data shards plus n−k parity shards
// survives the loss of any n−k shard holders at a storage overhead of
// n/k× instead of replication's (r+1)×. The construction is the classic
// Vandermonde one (a Vandermonde matrix normalised so its top k×k block
// is the identity), so the first k shards are the payload itself and
// parity shards are GF(2⁸) linear combinations of them. Stdlib only.
package erasure

import (
	"errors"
	"fmt"
)

// Coding-parameter limits: GF(2⁸) supports at most 255 distinct shard
// rows, and a code needs at least one data and one parity shard.
const MaxShards = 255

// Errors returned by coding operations.
var (
	ErrBadParams   = errors.New("erasure: invalid k-of-n parameters")
	ErrShortShards = errors.New("erasure: fewer than k shards")
	ErrShardShape  = errors.New("erasure: shard index/length mismatch")
	ErrSingular    = errors.New("erasure: decode matrix is singular")
)

// gfTables holds the GF(2⁸) exp/log tables for the field generated by
// the primitive polynomial x⁸+x⁴+x³+x²+1 (0x11d).
type gfTables struct {
	exp [512]byte // doubled so mul can skip a mod-255 reduction
	log [256]byte
}

var gf = buildTables()

func buildTables() *gfTables {
	t := &gfTables{}
	x := 1
	for i := 0; i < 255; i++ {
		t.exp[i] = byte(x)
		t.log[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		t.exp[i] = t.exp[i-255]
	}
	return t
}

// mul multiplies two field elements.
func mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gf.exp[int(gf.log[a])+int(gf.log[b])]
}

// inv returns the multiplicative inverse of a non-zero element.
func inv(a byte) byte {
	return gf.exp[255-int(gf.log[a])]
}

// pow raises a field element to a non-negative power.
func pow(a byte, e int) byte {
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return gf.exp[(int(gf.log[a])*e)%255]
}

// matrix is a dense GF(2⁸) matrix, row major.
type matrix [][]byte

func newMatrix(rows, cols int) matrix {
	m := make(matrix, rows)
	backing := make([]byte, rows*cols)
	for i := range m {
		m[i] = backing[i*cols : (i+1)*cols]
	}
	return m
}

// vandermonde builds the n×k matrix v[i][j] = αᵢʲ with αᵢ = i. Any k of
// its rows are linearly independent because the αᵢ are distinct.
func vandermonde(n, k int) matrix {
	m := newMatrix(n, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			m[i][j] = pow(byte(i), j)
		}
	}
	return m
}

// times returns m·o.
func (m matrix) times(o matrix) matrix {
	rows, inner, cols := len(m), len(o), len(o[0])
	out := newMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			var acc byte
			for t := 0; t < inner; t++ {
				acc ^= mul(m[i][t], o[t][j])
			}
			out[i][j] = acc
		}
	}
	return out
}

// inverted returns m⁻¹ via Gauss–Jordan elimination, or ErrSingular.
func (m matrix) inverted() (matrix, error) {
	k := len(m)
	work := newMatrix(k, 2*k)
	for i := 0; i < k; i++ {
		copy(work[i], m[i])
		work[i][k+i] = 1
	}
	for col := 0; col < k; col++ {
		pivot := -1
		for r := col; r < k; r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, ErrSingular
		}
		work[col], work[pivot] = work[pivot], work[col]
		if p := work[col][col]; p != 1 {
			pi := inv(p)
			for j := 0; j < 2*k; j++ {
				work[col][j] = mul(work[col][j], pi)
			}
		}
		for r := 0; r < k; r++ {
			if r == col || work[r][col] == 0 {
				continue
			}
			f := work[r][col]
			for j := 0; j < 2*k; j++ {
				work[r][j] ^= mul(f, work[col][j])
			}
		}
	}
	out := newMatrix(k, k)
	for i := 0; i < k; i++ {
		copy(out[i], work[i][k:])
	}
	return out, nil
}

// codingMatrix returns the systematic n×k encoding matrix: the top k×k
// block is the identity (data shards are payload slices) and the bottom
// n−k rows generate the parity shards.
func codingMatrix(n, k int) matrix {
	v := vandermonde(n, k)
	top := newMatrix(k, k)
	for i := 0; i < k; i++ {
		copy(top[i], v[i])
	}
	topInv, err := top.inverted()
	if err != nil {
		// The top block of a Vandermonde matrix with distinct points is
		// always invertible; reaching here means the tables are corrupt.
		panic(err)
	}
	return v.times(topInv)
}

// checkParams validates a k-of-n parameter pair.
func checkParams(k, n int) error {
	if k < 1 || n <= k || n > MaxShards {
		return fmt.Errorf("%w: k=%d n=%d (need 1 ≤ k < n ≤ %d)", ErrBadParams, k, n, MaxShards)
	}
	return nil
}

// ShardSize returns the per-shard byte count for a size-byte payload
// split k ways (the last data shard is zero-padded up to it).
func ShardSize(size int64, k int) int64 {
	if size <= 0 {
		return 0
	}
	return (size + int64(k) - 1) / int64(k)
}

// Encode splits data into k equal data shards (zero-padded) and derives
// n−k parity shards, returning all n in index order. The returned slices
// are freshly allocated; data is not retained.
func Encode(data []byte, k, n int) ([][]byte, error) {
	if err := checkParams(k, n); err != nil {
		return nil, err
	}
	ss := int(ShardSize(int64(len(data)), k))
	shards := make([][]byte, n)
	backing := make([]byte, n*ss)
	for i := range shards {
		shards[i] = backing[i*ss : (i+1)*ss]
	}
	for i := 0; i < k; i++ {
		lo := i * ss
		if lo >= len(data) {
			break
		}
		hi := lo + ss
		if hi > len(data) {
			hi = len(data)
		}
		copy(shards[i], data[lo:hi])
	}
	cm := codingMatrix(n, k)
	for p := k; p < n; p++ {
		row := cm[p]
		out := shards[p]
		for j := 0; j < k; j++ {
			c := row[j]
			if c == 0 {
				continue
			}
			src := shards[j]
			for b := 0; b < ss; b++ {
				out[b] ^= mul(c, src[b])
			}
		}
	}
	return shards, nil
}

// Reconstruct rebuilds the original size-byte payload from any k shards:
// shards[i] carries the coded shard whose original index is idxs[i].
// All provided shards must share one length ≥ ShardSize(size, k).
func Reconstruct(idxs []int, shards [][]byte, k, n int, size int64) ([]byte, error) {
	if err := checkParams(k, n); err != nil {
		return nil, err
	}
	if len(idxs) < k || len(shards) < k {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrShortShards, len(shards), k)
	}
	ss := int(ShardSize(size, k))
	seen := make(map[int]bool, k)
	for i := 0; i < k; i++ {
		idx := idxs[i]
		if idx < 0 || idx >= n || seen[idx] || len(shards[i]) < ss {
			return nil, fmt.Errorf("%w: shard %d (index %d, %d bytes, need %d)",
				ErrShardShape, i, idx, len(shards[i]), ss)
		}
		seen[idx] = true
	}

	out := make([]byte, int(size))
	cm := codingMatrix(n, k)
	sub := newMatrix(k, k)
	for i := 0; i < k; i++ {
		copy(sub[i], cm[idxs[i]])
	}
	dec, err := sub.inverted()
	if err != nil {
		return nil, err
	}
	// Data shard j of the original payload is dec[j]·(provided shards).
	for j := 0; j < k; j++ {
		lo := j * ss
		if lo >= len(out) {
			break
		}
		hi := lo + ss
		if hi > len(out) {
			hi = len(out)
		}
		dst := out[lo:hi]
		for i := 0; i < k; i++ {
			c := dec[j][i]
			if c == 0 {
				continue
			}
			src := shards[i]
			for b := range dst {
				dst[b] ^= mul(c, src[b])
			}
		}
	}
	return out, nil
}
