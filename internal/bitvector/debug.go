package bitvector

import "fmt"

// Runtime assertion hooks for the ringdebug build tag. Every helper is
// called behind `if ringdebugEnabled { ... }`: in normal builds the
// constant is false (see ringdebug_off.go) and the compiler eliminates
// both the branch and the call, so the hot paths carry no overhead.

// sampleCount returns the expected select-directory length for total
// occurrences of one bit kind (see buildSelectSamples).
func sampleCount(total int) int {
	if total <= 0 {
		return 0
	}
	return (total + selSampleRate - 1) / selSampleRate
}

// debugCheckDirectory asserts the structural invariants of the derived
// rank/select directories — in particular that the select samples were
// rebuilt after deserialization (they are never stored; see select.go).
func (p *Plain) debugCheckDirectory() {
	nSuper := (p.n + superBits - 1) / superBits
	if len(p.super) != nSuper+1 {
		panic(fmt.Sprintf("ringdebug: bitvector: Plain rank directory has %d superblock entries, want %d — directory not rebuilt?",
			len(p.super), nSuper+1))
	}
	if int(p.super[nSuper]) != p.ones {
		panic(fmt.Sprintf("ringdebug: bitvector: Plain rank directory ends at %d ones, vector has %d",
			p.super[nSuper], p.ones))
	}
	if want := sampleCount(p.ones); len(p.selOne) != want {
		panic(fmt.Sprintf("ringdebug: bitvector: Plain select-one directory has %d samples, want %d — rebuild skipped after load?",
			len(p.selOne), want))
	}
	if want := sampleCount(p.n - p.ones); len(p.selZero) != want {
		panic(fmt.Sprintf("ringdebug: bitvector: Plain select-zero directory has %d samples, want %d — rebuild skipped after load?",
			len(p.selZero), want))
	}
}

// debugCheckSelect asserts the rank/select inverse: the position returned
// for the k-th one (zero) must hold a bit of that kind and have exactly
// k-1 such bits before it.
func (p *Plain) debugCheckSelect(k, pos int, one bool) {
	if pos < 0 || pos >= p.n {
		panic(fmt.Sprintf("ringdebug: bitvector: Plain select returned position %d outside [0,%d)", pos, p.n))
	}
	if one {
		if !p.Get(pos) || p.Rank1(pos) != k-1 {
			panic(fmt.Sprintf("ringdebug: bitvector: Plain Select1(%d) = %d violates the rank inverse (get=%v rank1=%d)",
				k, pos, p.Get(pos), p.Rank1(pos)))
		}
	} else if p.Get(pos) || p.Rank0(pos) != k-1 {
		panic(fmt.Sprintf("ringdebug: bitvector: Plain Select0(%d) = %d violates the rank inverse (get=%v rank0=%d)",
			k, pos, p.Get(pos), p.Rank0(pos)))
	}
}

// debugCheckDirectory is the RRR counterpart of Plain.debugCheckDirectory:
// it asserts the rank superblocks agree with the ones count and that
// DecodeRRR rebuilt the select samples (buildSelectSamples).
func (r *RRR) debugCheckDirectory() {
	nBlocks := (r.n + r.blockSize - 1) / r.blockSize
	nSuper := (nBlocks + r.sbRate - 1) / r.sbRate
	if len(r.superRank) != nSuper+1 {
		panic(fmt.Sprintf("ringdebug: bitvector: RRR rank directory has %d superblock entries, want %d",
			len(r.superRank), nSuper+1))
	}
	if int(r.superRank[nSuper]) != r.ones {
		panic(fmt.Sprintf("ringdebug: bitvector: RRR rank directory ends at %d ones, vector has %d",
			r.superRank[nSuper], r.ones))
	}
	if want := sampleCount(r.ones); len(r.selOne) != want {
		panic(fmt.Sprintf("ringdebug: bitvector: RRR select-one directory has %d samples, want %d — rebuild skipped after load?",
			len(r.selOne), want))
	}
	if want := sampleCount(r.n - r.ones); len(r.selZero) != want {
		panic(fmt.Sprintf("ringdebug: bitvector: RRR select-zero directory has %d samples, want %d — rebuild skipped after load?",
			len(r.selZero), want))
	}
}

// debugCheckSelect asserts the rank/select inverse on the compressed
// vector, decoding blocks as needed.
func (r *RRR) debugCheckSelect(k, pos int, one bool) {
	if pos < 0 || pos >= r.n {
		panic(fmt.Sprintf("ringdebug: bitvector: RRR select returned position %d outside [0,%d)", pos, r.n))
	}
	if one {
		if !r.Get(pos) || r.Rank1(pos) != k-1 {
			panic(fmt.Sprintf("ringdebug: bitvector: RRR Select1(%d) = %d violates the rank inverse (get=%v rank1=%d)",
				k, pos, r.Get(pos), r.Rank1(pos)))
		}
	} else if r.Get(pos) || r.Rank0(pos) != k-1 {
		panic(fmt.Sprintf("ringdebug: bitvector: RRR Select0(%d) = %d violates the rank inverse (get=%v rank0=%d)",
			k, pos, r.Get(pos), r.Rank0(pos)))
	}
}
