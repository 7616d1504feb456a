package ringhd

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/bits"
	"repro/internal/intvec"
	"repro/internal/wavelet"
)

const magic = uint64(0x52494e4748445631) // "RINGHDV1"

// WriteTo serializes the d-ary ring: header, the cycle covers, then each
// zone's column and C array.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	var total int64
	hdr := []uint64{magic, uint64(idx.d), uint64(idx.n), idx.u, uint64(len(idx.rings))}
	if err := writeU64s(w, &total, hdr...); err != nil {
		return total, err
	}
	for _, r := range idx.rings {
		cyc := make([]uint64, len(r.cycle))
		for i, a := range r.cycle {
			cyc[i] = uint64(a)
		}
		if err := writeU64s(w, &total, cyc...); err != nil {
			return total, err
		}
		for j := range r.cols {
			n, err := r.cols[j].WriteTo(w)
			total += n
			if err != nil {
				return total, err
			}
			n, err = r.c[j].WriteTo(w)
			total += n
			if err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// Read deserializes an index written by WriteTo. It consumes rd to EOF:
// the stream is read whole into an 8-byte-aligned buffer that the
// columns' and C arrays' word payloads then alias.
func Read(rd io.Reader) (*Index, error) {
	b, err := bits.ReadAligned(rd)
	if err != nil {
		return nil, fmt.Errorf("ringhd: %w", err)
	}
	src := bits.NewByteSource(b, "ringhd")
	hdr, err := src.U64s(5)
	if err != nil {
		return nil, err
	}
	if hdr[0] != magic {
		return nil, errors.New("ringhd: bad magic")
	}
	idx := &Index{d: int(hdr[1]), n: int(hdr[2]), u: hdr[3]}
	nRings := int(hdr[4])
	if idx.d < 2 || idx.d > 64 || idx.n < 0 || nRings < 1 || nRings > 10000 {
		return nil, fmt.Errorf("ringhd: corrupt header (d=%d n=%d rings=%d)", idx.d, idx.n, nRings)
	}
	for ri := 0; ri < nRings; ri++ {
		cyc, err := src.U64s(idx.d)
		if err != nil {
			return nil, err
		}
		r := &cycleRing{cycle: make([]int, idx.d), zoneOf: make([]int, idx.d)}
		seen := make([]bool, idx.d)
		for i, a := range cyc {
			if a >= uint64(idx.d) || seen[a] {
				return nil, errors.New("ringhd: corrupt cycle")
			}
			seen[a] = true
			r.cycle[i] = int(a)
			r.zoneOf[a] = i
		}
		for j := 0; j < idx.d; j++ {
			col, err := wavelet.Decode(src)
			if err != nil {
				return nil, fmt.Errorf("ringhd: ring %d zone %d column: %w", ri, j, err)
			}
			if col.Len() != idx.n {
				return nil, errors.New("ringhd: zone length mismatch")
			}
			cArr, err := intvec.Decode(src)
			if err != nil {
				return nil, fmt.Errorf("ringhd: ring %d zone %d C array: %w", ri, j, err)
			}
			if cArr.Len() != int(idx.u)+1 {
				return nil, errors.New("ringhd: C array length mismatch")
			}
			r.cols = append(r.cols, col)
			r.c = append(r.c, cArr)
		}
		idx.rings = append(idx.rings, r)
	}
	return idx, nil
}

func writeU64s(w io.Writer, total *int64, vs ...uint64) error {
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		for j := 0; j < 8; j++ {
			buf[8*i+j] = byte(v >> (8 * j))
		}
	}
	n, err := w.Write(buf)
	*total += int64(n)
	return err
}
