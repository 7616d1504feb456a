package dict

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

var sample = []StringTriple{
	{"bohr", "adv", "thomson"},
	{"nobel", "win", "bohr"},
	{"nobel", "nom", "thomson"},
}

func TestBuildSharedSpace(t *testing.T) {
	d, enc := Build(sample)
	// bohr appears as subject and object: one ID.
	sID, ok1 := d.EncodeSO("bohr")
	if !ok1 {
		t.Fatal("bohr missing")
	}
	if enc[0].S != sID || enc[1].O != sID {
		t.Error("bohr does not share one ID across subject and object positions")
	}
	if d.NumSO() != 3 { // bohr, nobel, thomson
		t.Errorf("NumSO = %d, want 3", d.NumSO())
	}
	if d.NumP() != 3 { // adv, nom, win
		t.Errorf("NumP = %d, want 3", d.NumP())
	}
}

func TestIDsAreLexicographic(t *testing.T) {
	d, _ := Build(sample)
	a, _ := d.EncodeSO("bohr")
	b, _ := d.EncodeSO("nobel")
	c, _ := d.EncodeSO("thomson")
	if !(a < b && b < c) {
		t.Errorf("IDs not lexicographic: bohr=%d nobel=%d thomson=%d", a, b, c)
	}
	p1, _ := d.EncodeP("adv")
	p2, _ := d.EncodeP("nom")
	p3, _ := d.EncodeP("win")
	if !(p1 < p2 && p2 < p3) {
		t.Errorf("predicate IDs not lexicographic: %d %d %d", p1, p2, p3)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d, _ := Build(sample)
	for _, s := range []string{"bohr", "nobel", "thomson"} {
		id, ok := d.EncodeSO(s)
		if !ok {
			t.Fatalf("EncodeSO(%q) missing", s)
		}
		got, ok := d.DecodeSO(id)
		if !ok || got != s {
			t.Errorf("DecodeSO(EncodeSO(%q)) = %q", s, got)
		}
	}
	if _, ok := d.EncodeSO("absent"); ok {
		t.Error("EncodeSO accepted an absent constant")
	}
	if _, ok := d.DecodeSO(99); ok {
		t.Error("DecodeSO accepted an out-of-range ID")
	}
	if _, ok := d.DecodeP(99); ok {
		t.Error("DecodeP accepted an out-of-range ID")
	}
}

func TestDecodeBinding(t *testing.T) {
	d, _ := Build(sample)
	x, _ := d.EncodeSO("nobel")
	p, _ := d.EncodeP("win")
	got := d.DecodeBinding(graph.Binding{"x": x, "pr": p}, map[string]bool{"pr": true})
	if got["x"] != "nobel" || got["pr"] != "win" {
		t.Errorf("DecodeBinding = %v", got)
	}
}

func TestParseTSV(t *testing.T) {
	input := "# comment\nbohr adv thomson\n\nnobel\twin\tbohr\n"
	ts, err := ParseTSV(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0] != (StringTriple{"bohr", "adv", "thomson"}) ||
		ts[1] != (StringTriple{"nobel", "win", "bohr"}) {
		t.Errorf("ParseTSV = %v", ts)
	}
	if _, err := ParseTSV(strings.NewReader("only two\n")); err == nil {
		t.Error("accepted malformed line")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	d, _ := Build(sample)
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSO() != d.NumSO() || got.NumP() != d.NumP() {
		t.Fatal("sizes differ after round-trip")
	}
	for _, s := range []string{"bohr", "nobel", "thomson"} {
		a, _ := d.EncodeSO(s)
		b, ok := got.EncodeSO(s)
		if !ok || a != b {
			t.Errorf("EncodeSO(%q) differs after round-trip", s)
		}
	}
}

// TestSerializationHostileTerms holds the length-prefixed framing to
// its contract: terms are arbitrary byte strings (live mode lets any
// JSON string become one), so embedded newlines, colons, or binary
// bytes must survive a round-trip without shifting later IDs.
func TestSerializationHostileTerms(t *testing.T) {
	terms := []string{"plain", "with\nnewline", "with:colon", "12:34\n56", "\x00\xff binary", ""}
	d, _ := Build(nil)
	for _, s := range terms[:len(terms)-1] { // AddSO of "" is valid too, but Build-style use never sees it
		d.AddSO(s)
	}
	d.AddP("p\nq")
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSO() != d.NumSO() || got.NumP() != d.NumP() {
		t.Fatalf("sizes differ after round-trip: so %d/%d p %d/%d",
			got.NumSO(), d.NumSO(), got.NumP(), d.NumP())
	}
	for _, s := range terms[:len(terms)-1] {
		want, _ := d.EncodeSO(s)
		if id, ok := got.EncodeSO(s); !ok || id != want {
			t.Errorf("EncodeSO(%q) = %d,%v after round-trip, want %d", s, id, ok, want)
		}
	}
	if id, ok := got.EncodeP("p\nq"); !ok || id != 0 {
		t.Errorf("EncodeP(%q) = %d,%v after round-trip, want 0", "p\nq", id, ok)
	}
}

func TestSerializationCorrupt(t *testing.T) {
	d, _ := Build(sample)
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)-10])); err == nil {
		t.Error("accepted truncated dictionary")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("accepted bad magic")
	}
	huge := []byte(magicHdr + "1 0\n99999999999999999999:x\n")
	if _, err := Read(bytes.NewReader(huge)); err == nil {
		t.Error("accepted oversized term length")
	}
}

func TestEmptyDictionary(t *testing.T) {
	d, enc := Build(nil)
	if d.NumSO() != 0 || d.NumP() != 0 || len(enc) != 0 {
		t.Error("empty build not empty")
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatalf("round-trip of empty dictionary: %v", err)
	}
}

func TestDecodeRowAndSnapshot(t *testing.T) {
	d, _ := Build(sample)
	x, _ := d.EncodeSO("nobel")
	p, _ := d.EncodeP("win")
	vars, row, predVars := []string{"x", "pr", "x"}, []graph.ID{x, p, x}, map[string]bool{"pr": true}
	want := d.DecodeBinding(graph.Binding{"x": x, "pr": p}, predVars)
	if got := d.DecodeRow(vars, row, predVars); !reflect.DeepEqual(got, want) {
		t.Errorf("DecodeRow = %v, want DecodeBinding's %v", got, want)
	}
	if got := d.term(d.NumSO(), false); got != fmt.Sprintf("#%d", d.NumSO()) {
		t.Errorf("term of an unknown id = %q", got)
	}

	// A snapshot keeps decoding what it held while the dictionary grows.
	snap := d.Snapshot()
	added := d.AddSO("zz-added-later")
	if got := snap.DecodeRow(vars, row, predVars); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot DecodeRow = %v, want %v", got, want)
	}
	if _, ok := snap.DecodeSO(added); ok {
		t.Error("snapshot sees a term added after it was taken")
	}
	if s, ok := d.DecodeSO(added); !ok || s != "zz-added-later" {
		t.Errorf("dictionary lost the added term: %q, %v", s, ok)
	}
}
