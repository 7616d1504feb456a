package wavelet

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"
)

// alignedCopy returns a copy of data whose base address is 8-byte
// aligned plus skew — skew 0 exercises the zero-copy aliasing path,
// skew 1..7 the misaligned copy fallback.
func alignedCopy(data []byte, skew int) []byte {
	buf := make([]byte, len(data)+16)
	off := (8 - int(uintptr(unsafe.Pointer(&buf[0])))%8) % 8
	off += skew
	copy(buf[off:], data)
	return buf[off : off+len(data)]
}

func serialize(t *testing.T, m *Matrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestViewMatchesRead(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, tc := range allOpts {
		s := randomSeq(rng, 900, 57)
		data := serialize(t, New(s, 57, tc.opt))
		for _, skew := range []int{0, 3} {
			m, consumed, err := View(alignedCopy(data, skew))
			if err != nil {
				t.Fatalf("%s skew %d: %v", tc.name, skew, err)
			}
			if consumed != len(data) {
				t.Fatalf("%s skew %d: consumed %d of %d bytes", tc.name, skew, consumed, len(data))
			}
			if m.Len() != len(s) || m.sigma != 57 {
				t.Fatalf("%s skew %d: header mismatch", tc.name, skew)
			}
			for i := range s {
				if m.Access(i) != s[i] {
					t.Fatalf("%s skew %d: Access(%d) = %d, want %d", tc.name, skew, i, m.Access(i), s[i])
				}
			}
			for c := uint64(0); c < 57; c += 7 {
				if got, want := m.Rank(c, len(s)), naiveRank(s, c, len(s)); got != want {
					t.Fatalf("%s skew %d: Rank(%d) = %d, want %d", tc.name, skew, c, got, want)
				}
			}
		}
	}
}

func TestViewTruncationsError(t *testing.T) {
	s := randomSeq(rand.New(rand.NewSource(62)), 300, 20)
	for _, tc := range allOpts {
		data := serialize(t, New(s, 20, tc.opt))
		for i := 0; i < len(data); i++ {
			if _, _, err := View(alignedCopy(data[:i], 0)); err == nil {
				t.Errorf("%s: accepted truncation to %d of %d bytes", tc.name, i, len(data))
			}
		}
	}
}

// TestViewBitFlips corrupts each serialization one byte at a time: View
// must either reject the input or answer queries without panicking.
func TestViewBitFlips(t *testing.T) {
	if ringdebugEnabled {
		t.Skip("corrupt-but-accepted input returns wrong answers by policy, which legitimately trips ringdebug assertions")
	}
	s := randomSeq(rand.New(rand.NewSource(63)), 250, 33)
	for _, tc := range allOpts {
		data := serialize(t, New(s, 33, tc.opt))
		for i := 0; i < len(data); i++ {
			c := alignedCopy(data, 0)
			c[i] ^= 0x5A
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic on byte %d flipped: %v", tc.name, i, r)
					}
				}()
				m, _, err := View(c)
				if err != nil {
					return
				}
				n := m.Len()
				if n > 100000 {
					n = 100000
				}
				for j := 0; j < n; j += 3 {
					m.Access(j)
				}
				for sym := uint64(0); sym < m.sigma && sym < 64; sym++ {
					if k := m.Rank(sym, n); k > 0 {
						m.Select(sym, 1)
						m.Select(sym, k)
					}
				}
				m.RangeNextValue(0, n, 5)
			}()
		}
	}
}
