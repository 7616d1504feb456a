//go:build ringdebug

package bitvector

import (
	"bytes"
	"strings"
	"testing"
)

// TestRingdebugCatchesSkippedSelectRebuild deliberately breaks the
// derived-state invariant that both the ringlint derivedstate analyzer
// and the ringdebug assertions guard: an RRR vector whose select samples
// were not rebuilt after deserialization. The first Select1 must trip the
// directory assertion instead of returning garbage (or crashing with an
// unexplained index panic).
func TestRingdebugCatchesSkippedSelectRebuild(t *testing.T) {
	v := NewRRR(100000, 16, func(i int) bool { return i%7 == 0 })
	var buf bytes.Buffer
	if _, err := v.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r, _, err := viewRRR(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a deserializer that skipped buildSelectSamples.
	r.selOne, r.selZero = nil, nil
	defer func() {
		msg, ok := recover().(string)
		if !ok || !strings.Contains(msg, "ringdebug") {
			t.Fatalf("expected a ringdebug assertion panic, got %v", msg)
		}
	}()
	r.Select1(1)
	t.Fatal("Select1 returned without tripping the ringdebug assertion")
}

// TestRingdebugSelectAssertionsPass exercises the select paths with the
// assertions enabled on an intact vector: no panic means the inverse
// checks agree with the directories.
func TestRingdebugSelectAssertionsPass(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    Vector
	}{
		{"plain", newPlain(50000, func(i int) bool { return i%3 == 0 })},
		{"rrr", NewRRR(50000, 16, func(i int) bool { return i%3 == 0 })},
	} {
		ones := tc.v.Ones()
		for k := 1; k <= ones; k += 997 {
			if pos := tc.v.Select1(k); pos < 0 {
				t.Fatalf("%s: Select1(%d) = %d", tc.name, k, pos)
			}
		}
		zeros := tc.v.Len() - ones
		for k := 1; k <= zeros; k += 997 {
			if pos := tc.v.Select0(k); pos < 0 {
				t.Fatalf("%s: Select0(%d) = %d", tc.name, k, pos)
			}
		}
	}
}
