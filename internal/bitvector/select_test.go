package bitvector

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// adversarialPatterns builds bit patterns chosen to stress the select
// directories: the sampled windows degenerate (all occurrences in one
// superblock), stretch (occurrences thousands of superblocks apart), or
// land exactly on sample boundaries (runs of selSampleRate bits).
func adversarialPatterns(n int) map[string][]bool {
	mk := func(f func(i int) bool) []bool {
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = f(i)
		}
		return bs
	}
	return map[string][]bool{
		"all-zeros":   mk(func(int) bool { return false }),
		"all-ones":    mk(func(int) bool { return true }),
		"alternating": mk(func(i int) bool { return i%2 == 0 }),
		// Heavy clusters: selSampleRate ones, then an equally long gap, so
		// consecutive select samples straddle the run boundaries exactly.
		"sample-runs": mk(func(i int) bool { return i/selSampleRate%2 == 0 }),
		// A lone dense cluster at each end, nothing in between: the window
		// for mid-range ks spans almost the whole directory.
		"two-clumps": mk(func(i int) bool { return i < 1000 || i >= n-1000 }),
		// Clustered short runs: bursts of 37 ones every 509 bits.
		"bursts": mk(func(i int) bool { return i%509 < 37 }),
		// Single one in the last word, zeros elsewhere.
		"last-bit": mk(func(i int) bool { return i == n-1 }),
	}
}

// checkSelectsExhaustive verifies Select1/Select0 for every valid k (and
// just-out-of-range ks) against positions computed directly from the bits.
// Unlike checkAgainstNaive it is O(n), so it can run at sizes that span
// many select samples.
func checkSelectsExhaustive(t *testing.T, v Vector, bs []bool, label string) {
	t.Helper()
	var onesPos, zerosPos []int
	for i, b := range bs {
		if b {
			onesPos = append(onesPos, i)
		} else {
			zerosPos = append(zerosPos, i)
		}
	}
	if v.Ones() != len(onesPos) {
		t.Fatalf("%s: Ones = %d, want %d", label, v.Ones(), len(onesPos))
	}
	for k, p := range onesPos {
		if got := v.Select1(k + 1); got != p {
			t.Fatalf("%s: Select1(%d) = %d, want %d", label, k+1, got, p)
		}
	}
	for k, p := range zerosPos {
		if got := v.Select0(k + 1); got != p {
			t.Fatalf("%s: Select0(%d) = %d, want %d", label, k+1, got, p)
		}
	}
	if got := v.Select1(len(onesPos) + 1); got != -1 {
		t.Fatalf("%s: Select1 past end = %d, want -1", label, got)
	}
	if got := v.Select0(len(zerosPos) + 1); got != -1 {
		t.Fatalf("%s: Select0 past end = %d, want -1", label, got)
	}
}

func TestSelectAdversarialPatterns(t *testing.T) {
	// n spans dozens of select samples in the dense patterns and none in
	// the sparsest, covering both sides of the sampling.
	n := 1<<17 + 331 // odd tail: the last superblock and word are partial
	for name, bs := range adversarialPatterns(n) {
		checkSelectsExhaustive(t, buildPlain(bs), bs, "plain/"+name)
		checkSelectsExhaustive(t, buildRRR(bs, 16), bs, "rrr16/"+name)
		checkSelectsExhaustive(t, buildRRR(bs, 63), bs, "rrr63/"+name)
	}
}

// TestSelectMatchesRankInverse cross-checks the sampled select against
// rank on random densities at a size with several samples per directory.
func TestSelectMatchesRankInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, density := range []float64{0.001, 0.1, 0.5, 0.9, 0.999} {
		bs := randomBits(rng, 1<<16, density)
		for _, v := range []Vector{buildPlain(bs), buildRRR(bs, 16)} {
			for trial := 0; trial < 300; trial++ {
				if ones := v.Ones(); ones > 0 {
					k := 1 + rng.Intn(ones)
					p := v.Select1(k)
					if p < 0 || !v.Get(p) || v.Rank1(p) != k-1 {
						t.Fatalf("density %v: Select1(%d) = %d inconsistent with rank", density, k, p)
					}
				}
				if zeros := v.Len() - v.Ones(); zeros > 0 {
					k := 1 + rng.Intn(zeros)
					p := v.Select0(k)
					if p < 0 || v.Get(p) || v.Rank0(p) != k-1 {
						t.Fatalf("density %v: Select0(%d) = %d inconsistent with rank", density, k, p)
					}
				}
			}
		}
	}
}

// TestSelectSamplesRebuiltOnLoad asserts the select directories are
// reconstructed identically after a serialization round-trip — they are
// derived state, not part of the stream.
func TestSelectSamplesRebuiltOnLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	bs := randomBits(rng, 40_000, 0.5)

	p := buildPlain(bs)
	if p.selOne == nil || p.selZero == nil {
		t.Fatal("plain: select samples not built (vector too small for the test?)")
	}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	gotP, _, err := viewPlain(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotP.selOne, p.selOne) || !reflect.DeepEqual(gotP.selZero, p.selZero) {
		t.Error("plain: select samples differ after round-trip")
	}

	r := buildRRR(bs, 16)
	if r.selOne == nil || r.selZero == nil {
		t.Fatal("rrr: select samples not built")
	}
	buf.Reset()
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	gotR, _, err := viewRRR(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotR.selOne, r.selOne) || !reflect.DeepEqual(gotR.selZero, r.selZero) {
		t.Error("rrr: select samples differ after round-trip")
	}
}

// TestReadRRRRejectsInconsistentOnes corrupts the ones count relative to
// the rank directory; the loader must reject the stream rather than walk
// past the directory while rebuilding select samples.
func TestReadRRRRejectsInconsistentOnes(t *testing.T) {
	bs := randomBits(rand.New(rand.NewSource(73)), 5000, 0.5)
	var buf bytes.Buffer
	if _, err := buildRRR(bs, 16).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[32] ^= 0x01 // low byte of the ones field (header word 4)
	if _, _, err := viewRRR(data); err == nil {
		t.Error("ViewRRR accepted a stream whose ones count disagrees with the rank directory")
	}
}
