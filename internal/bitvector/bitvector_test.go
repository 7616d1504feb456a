package bitvector

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// naive is a reference implementation of the Vector interface.
type naive struct{ bits []bool }

func (nv *naive) Len() int       { return len(nv.bits) }
func (nv *naive) Get(i int) bool { return nv.bits[i] }
func (nv *naive) Ones() int {
	c := 0
	for _, b := range nv.bits {
		if b {
			c++
		}
	}
	return c
}
func (nv *naive) Rank1(i int) int {
	if i > len(nv.bits) {
		i = len(nv.bits)
	}
	c := 0
	for j := 0; j < i; j++ {
		if nv.bits[j] {
			c++
		}
	}
	return c
}
func (nv *naive) Rank0(i int) int {
	if i > len(nv.bits) {
		i = len(nv.bits)
	}
	return i - nv.Rank1(i)
}
func (nv *naive) Select1(k int) int {
	for i, b := range nv.bits {
		if b {
			k--
			if k == 0 {
				return i
			}
		}
	}
	return -1
}
func (nv *naive) Select0(k int) int {
	for i, b := range nv.bits {
		if !b {
			k--
			if k == 0 {
				return i
			}
		}
	}
	return -1
}
func (nv *naive) SizeBytes() int { return len(nv.bits) }

func randomBits(rng *rand.Rand, n int, density float64) []bool {
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = rng.Float64() < density
	}
	return bs
}

// newPlain builds a Plain vector of length n whose set bits are given by
// get.
func newPlain(n int, get func(i int) bool) *Plain {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		if get(i) {
			b.Set(i)
		}
	}
	return b.BuildPlain()
}

func buildPlain(bs []bool) *Plain {
	return newPlain(len(bs), func(i int) bool { return bs[i] })
}

func buildRRR(bs []bool, blockSize int) *RRR {
	return NewRRR(len(bs), blockSize, func(i int) bool { return bs[i] })
}

// checkAgainstNaive verifies every operation of v against the reference.
func checkAgainstNaive(t *testing.T, v Vector, bs []bool, label string) {
	t.Helper()
	ref := &naive{bits: bs}
	if v.Len() != ref.Len() {
		t.Fatalf("%s: Len = %d, want %d", label, v.Len(), ref.Len())
	}
	if v.Ones() != ref.Ones() {
		t.Fatalf("%s: Ones = %d, want %d", label, v.Ones(), ref.Ones())
	}
	for i := 0; i < len(bs); i++ {
		if v.Get(i) != bs[i] {
			t.Fatalf("%s: Get(%d) = %v, want %v", label, i, v.Get(i), bs[i])
		}
	}
	for i := 0; i <= len(bs); i++ {
		if got, want := v.Rank1(i), ref.Rank1(i); got != want {
			t.Fatalf("%s: Rank1(%d) = %d, want %d", label, i, got, want)
		}
		if got, want := v.Rank0(i), ref.Rank0(i); got != want {
			t.Fatalf("%s: Rank0(%d) = %d, want %d", label, i, got, want)
		}
	}
	ones, zeros := ref.Ones(), len(bs)-ref.Ones()
	for k := 1; k <= ones; k++ {
		if got, want := v.Select1(k), ref.Select1(k); got != want {
			t.Fatalf("%s: Select1(%d) = %d, want %d", label, k, got, want)
		}
	}
	for k := 1; k <= zeros; k++ {
		if got, want := v.Select0(k), ref.Select0(k); got != want {
			t.Fatalf("%s: Select0(%d) = %d, want %d", label, k, got, want)
		}
	}
	// Out-of-range selects return -1.
	for _, k := range []int{0, -1, ones + 1} {
		if got := v.Select1(k); got != -1 {
			t.Fatalf("%s: Select1(%d) = %d, want -1", label, k, got)
		}
	}
	for _, k := range []int{0, -1, zeros + 1} {
		if got := v.Select0(k); got != -1 {
			t.Fatalf("%s: Select0(%d) = %d, want -1", label, k, got)
		}
	}
}

func TestPlainAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 511, 512, 513, 1000, 4096} {
		for _, density := range []float64{0, 0.01, 0.5, 0.99, 1} {
			bs := randomBits(rng, n, density)
			checkAgainstNaive(t, buildPlain(bs), bs, "plain")
		}
	}
}

func TestRRRAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, blockSize := range []int{1, 2, 7, 15, 16, 31, 63, 64} {
		for _, n := range []int{0, 1, 63, 64, 65, 257, 1030} {
			for _, density := range []float64{0, 0.05, 0.5, 1} {
				bs := randomBits(rng, n, density)
				v := buildRRR(bs, blockSize)
				checkAgainstNaive(t, v, bs, "rrr")
			}
		}
	}
}

func TestRRRLargeSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	bs := randomBits(rng, 50000, 0.02)
	checkAgainstNaiveSampled(t, buildRRR(bs, 16), bs)
	checkAgainstNaiveSampled(t, buildPlain(bs), bs)
}

// checkAgainstNaiveSampled spot-checks a large vector.
func checkAgainstNaiveSampled(t *testing.T, v Vector, bs []bool) {
	t.Helper()
	ref := &naive{bits: bs}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		i := rng.Intn(len(bs) + 1)
		if got, want := v.Rank1(i), ref.Rank1(i); got != want {
			t.Fatalf("Rank1(%d) = %d, want %d", i, got, want)
		}
	}
	ones := ref.Ones()
	for trial := 0; trial < 200 && ones > 0; trial++ {
		k := 1 + rng.Intn(ones)
		if got, want := v.Select1(k), ref.Select1(k); got != want {
			t.Fatalf("Select1(%d) = %d, want %d", k, got, want)
		}
	}
	zeros := len(bs) - ones
	for trial := 0; trial < 200 && zeros > 0; trial++ {
		k := 1 + rng.Intn(zeros)
		if got, want := v.Select0(k), ref.Select0(k); got != want {
			t.Fatalf("Select0(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestRankSelectInverseProperty(t *testing.T) {
	// Property: for every set bit at position p = Select1(k),
	// Rank1(p) == k-1 and Rank1(p+1) == k (and symmetrically for zeros).
	f := func(seed int64, nRaw uint16, densityRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%2000) + 1
		density := float64(densityRaw) / 255
		bs := randomBits(rng, n, density)
		for _, v := range []Vector{buildPlain(bs), buildRRR(bs, 15), buildRRR(bs, 64)} {
			for k := 1; k <= v.Ones(); k++ {
				p := v.Select1(k)
				if p < 0 || !v.Get(p) || v.Rank1(p) != k-1 || v.Rank1(p+1) != k {
					return false
				}
			}
			zeros := v.Len() - v.Ones()
			for k := 1; k <= zeros; k++ {
				p := v.Select0(k)
				if p < 0 || v.Get(p) || v.Rank0(p) != k-1 || v.Rank0(p+1) != k {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRRRCompressesSkewed(t *testing.T) {
	// A very sparse vector must compress well below the plain size.
	n := 1 << 18
	bs := make([]bool, n)
	for i := 0; i < n; i += 512 {
		bs[i] = true
	}
	plain := buildPlain(bs)
	rrr := buildRRR(bs, 63)
	if rrr.SizeBytes() >= plain.SizeBytes()/4 {
		t.Errorf("RRR on sparse data: %d bytes, plain %d bytes — expected >4x compression",
			rrr.SizeBytes(), plain.SizeBytes())
	}
}

func TestRRRBlockSizeTradeoff(t *testing.T) {
	// Larger blocks should not compress worse on compressible data.
	rng := rand.New(rand.NewSource(14))
	bs := randomBits(rng, 1<<16, 0.03)
	small := buildRRR(bs, 15)
	large := buildRRR(bs, 63)
	if large.SizeBytes() > small.SizeBytes() {
		t.Errorf("b=63 (%d bytes) larger than b=15 (%d bytes) on compressible data",
			large.SizeBytes(), small.SizeBytes())
	}
}

func TestPlainSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{0, 1, 64, 1000} {
		bs := randomBits(rng, n, 0.4)
		v := buildPlain(bs)
		var buf bytes.Buffer
		if _, err := v.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		got, _, err := viewPlain(buf.Bytes())
		if err != nil {
			t.Fatalf("ViewPlain: %v", err)
		}
		checkAgainstNaive(t, got, bs, "plain-roundtrip")
	}
}

func TestRRRSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, b := range []int{15, 16, 64} {
		bs := randomBits(rng, 3000, 0.2)
		v := buildRRR(bs, b)
		var buf bytes.Buffer
		if _, err := v.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		got, _, err := viewRRR(buf.Bytes())
		if err != nil {
			t.Fatalf("ViewRRR: %v", err)
		}
		checkAgainstNaive(t, got, bs, "rrr-roundtrip")
	}
}

func TestCorruptSerializationErrors(t *testing.T) {
	bs := randomBits(rand.New(rand.NewSource(17)), 500, 0.5)

	var buf bytes.Buffer
	if _, err := buildPlain(bs).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Truncated stream.
	if _, _, err := viewPlain(data[:len(data)/2]); err == nil {
		t.Error("ViewPlain accepted a truncated stream")
	}
	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, _, err := viewPlain(bad); err == nil {
		t.Error("ViewPlain accepted a corrupted magic")
	}
	// Reading Plain data as RRR must fail, not panic.
	if _, _, err := viewRRR(data); err == nil {
		t.Error("ViewRRR accepted Plain data")
	}

	buf.Reset()
	if _, err := buildRRR(bs, 16).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rdata := buf.Bytes()
	if _, _, err := viewRRR(rdata[:20]); err == nil {
		t.Error("ViewRRR accepted a truncated stream")
	}
	// Corrupt the block-size field to an invalid value.
	badR := append([]byte(nil), rdata...)
	badR[16] = 0xFF
	if _, _, err := viewRRR(badR); err == nil {
		t.Error("ViewRRR accepted an invalid block size")
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set out of range did not panic")
		}
	}()
	NewBuilder(10).Set(10)
}

func TestGetPanicsOutOfRange(t *testing.T) {
	v := buildPlain([]bool{true})
	defer func() {
		if recover() == nil {
			t.Error("Get out of range did not panic")
		}
	}()
	v.Get(1)
}

func TestEncodeDecodeBlockExhaustiveSmall(t *testing.T) {
	// For b=10, every 10-bit word must round-trip through class/offset.
	tab := binomTables[10]
	for w := uint64(0); w < 1<<10; w++ {
		c := 0
		for x := w; x != 0; x &= x - 1 {
			c++
		}
		off := tab.encodeBlock(w)
		if off >= tab.binom[10][c] {
			t.Fatalf("offset %d out of range for class %d", off, c)
		}
		if got := tab.decodeBlock(c, off); got != w {
			t.Fatalf("decode(encode(%#x)) = %#x", w, got)
		}
	}
}

func TestEncodeDecodeBlock64(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	tab := binomTables[64]
	for i := 0; i < 5000; i++ {
		w := rng.Uint64()
		c := 0
		for x := w; x != 0; x &= x - 1 {
			c++
		}
		if got := tab.decodeBlock(c, tab.encodeBlock(w)); got != w {
			t.Fatalf("64-bit block round-trip failed for %#x: got %#x", w, got)
		}
	}
}
