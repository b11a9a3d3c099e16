// Package rle implements the run-length encodings used by demo files.
//
// The paper applies "a simple run length encoding" both to the QUEUE
// strategy's tick stream (where one thread is often scheduled many times in
// succession) and to recorded syscall buffers (which are dominated by zero
// bytes and repeated payload fragments). Two coders are provided:
//
//   - Uint64 RLE: (value, count) pairs over a []uint64 stream, varint
//     encoded. Used for tick lists and first-tick maps.
//   - Byte RLE: a classic escape-free byte coder for syscall buffers.
package rle

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt is returned when an encoded stream cannot be decoded.
var ErrCorrupt = errors.New("rle: corrupt stream")

// AppendUint64s appends the run-length encoding of vals to dst and returns
// the extended slice. The encoding is a varint pair (value, runLength) per
// run, preceded by a varint run count.
func AppendUint64s(dst []byte, vals []uint64) []byte {
	runs := countRuns(vals)
	dst = binary.AppendUvarint(dst, uint64(runs))
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		dst = binary.AppendUvarint(dst, vals[i])
		dst = binary.AppendUvarint(dst, uint64(j-i))
		i = j
	}
	return dst
}

func countRuns(vals []uint64) int {
	runs := 0
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		runs++
		i = j
	}
	return runs
}

// maxExpansion bounds how many decoded items a single encoded byte may
// claim, and decodeFloor is the decoded-size allowance every stream gets
// regardless of input size. Together they cap a decoder's total output at
// max(decodeFloor, maxExpansion*len(src)): legitimate streams sit far
// below the bound (a 50M-tick single-run demo needs ~763 input bytes to
// clear it), while a corrupt handful of bytes claiming a multi-GiB run
// count is rejected before the allocation instead of after.
const (
	maxExpansion = 1 << 16
	decodeFloor  = 1 << 20
)

// decodeLimit returns the maximum number of items an input of n bytes may
// legitimately decode to.
func decodeLimit(n int) uint64 {
	if lim := uint64(n) * maxExpansion; lim > decodeFloor {
		return lim
	}
	return decodeFloor
}

// DecodeUint64s decodes a stream produced by AppendUint64s, returning the
// values and the number of bytes consumed. The cumulative decoded length
// is bounded by the input size (see decodeLimit), so corrupt run counts
// cannot force huge allocations.
func DecodeUint64s(src []byte) ([]uint64, int, error) {
	// The first pass validates and sizes, so the second fills one exact
	// allocation instead of growing the output by doubling.
	total, off, err := scanRuns(src, nil)
	if err != nil || total == 0 {
		return nil, off, err
	}
	out := make([]uint64, 0, total)
	scanRuns(src, func(val, cnt uint64) {
		for ; cnt > 0; cnt-- {
			out = append(out, val)
		}
	})
	return out, off, nil
}

// scanRuns walks the (value, count) runs of an AppendUint64s stream,
// handing each to emit when it is non-nil, and returns the decoded length
// and the number of bytes consumed.
func scanRuns(src []byte, emit func(val, cnt uint64)) (uint64, int, error) {
	runs, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: run count", ErrCorrupt)
	}
	limit := decodeLimit(len(src))
	off := n
	total := uint64(0)
	for r := uint64(0); r < runs; r++ {
		val, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return 0, 0, fmt.Errorf("%w: run %d value", ErrCorrupt, r)
		}
		off += n
		cnt, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return 0, 0, fmt.Errorf("%w: run %d count", ErrCorrupt, r)
		}
		off += n
		if cnt == 0 {
			return 0, 0, fmt.Errorf("%w: run %d has zero length", ErrCorrupt, r)
		}
		if cnt > limit || total+cnt > limit {
			return 0, 0, fmt.Errorf("%w: run %d claims %d values from %d input bytes", ErrCorrupt, r, cnt, len(src))
		}
		total += cnt
		if emit != nil {
			emit(val, cnt)
		}
	}
	return total, off, nil
}

// AppendBytes appends the run-length encoding of data to dst. Runs of four
// or more identical bytes are encoded as (0xFF, byte, varint count);
// literal 0xFF bytes are escaped as a run of length one, so the decoder
// never misparses. Shorter runs are emitted verbatim. The encoded form is
// prefixed with a varint of the decoded length.
func AppendBytes(dst, data []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(data)))
	for i := 0; i < len(data); {
		b := data[i]
		j := i + 1
		for j < len(data) && data[j] == b {
			j++
		}
		run := j - i
		if run >= 4 || b == 0xFF {
			dst = append(dst, 0xFF, b)
			dst = binary.AppendUvarint(dst, uint64(run))
		} else {
			for k := 0; k < run; k++ {
				dst = append(dst, b)
			}
		}
		i = j
	}
	return dst
}

// DecodeBytes decodes a stream produced by AppendBytes, returning the data
// and the number of bytes consumed.
func DecodeBytes(src []byte) ([]byte, int, error) {
	total, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: length prefix", ErrCorrupt)
	}
	if total > decodeLimit(len(src)) {
		return nil, 0, fmt.Errorf("%w: claimed length %d from %d input bytes", ErrCorrupt, total, len(src))
	}
	off := n
	// Pre-allocate conservatively: the claimed total is attacker
	// controlled until the body has actually been decoded, so cap the
	// up-front allocation and let append grow the rest as real data
	// materialises.
	prealloc := total
	if prealloc > 1<<16 {
		prealloc = 1 << 16
	}
	out := make([]byte, 0, prealloc)
	for uint64(len(out)) < total {
		if off >= len(src) {
			return nil, 0, fmt.Errorf("%w: truncated body", ErrCorrupt)
		}
		b := src[off]
		off++
		if b != 0xFF {
			out = append(out, b)
			continue
		}
		if off >= len(src) {
			return nil, 0, fmt.Errorf("%w: truncated escape", ErrCorrupt)
		}
		v := src[off]
		off++
		cnt, n := binary.Uvarint(src[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("%w: escape count", ErrCorrupt)
		}
		off += n
		if cnt == 0 || uint64(len(out))+cnt > total {
			return nil, 0, fmt.Errorf("%w: escape overruns length", ErrCorrupt)
		}
		for i := uint64(0); i < cnt; i++ {
			out = append(out, v)
		}
	}
	return out, off, nil
}
