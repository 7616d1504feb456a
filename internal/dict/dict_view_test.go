package dict

import (
	"bytes"
	"testing"
	"testing/iotest"
	"unsafe"
)

func serializedDict(t *testing.T) (*Dictionary, []byte) {
	t.Helper()
	d, _ := Build([]StringTriple{
		{S: "alice", P: "knows", O: "bob"},
		{S: "bob", P: "knows", O: "carol"},
		{S: "carol", P: "likes", O: "alice"},
		{S: "d\nangerous", P: "p:with:colons", O: ""},
	})
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return d, buf.Bytes()
}

// TestViewMatchesRead checks View against Read on the same images:
// identical term tables, and lazy encode maps that invert them exactly.
func TestViewMatchesRead(t *testing.T) {
	for _, tc := range images(t) {
		rd, err := Read(iotest.OneByteReader(bytes.NewReader(tc.img)))
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		vd, err := View(tc.img)
		if err != nil {
			t.Fatalf("View: %v", err)
		}
		checkSameTerms(t, "view", vd, rd)
	}
}

// TestViewRejectsLikeRead feeds both loaders the same corrupted,
// truncated and byte-flipped images: their accept/reject verdicts must
// agree, and neither may panic.
func TestViewRejectsLikeRead(t *testing.T) {
	rejected, flipped := corruptImages(t)
	for ci, c := range append(rejected, flipped...) {
		errR := loadNoPanic(t, 0, c)
		errV := loadNoPanic(t, 1, c)
		if (errV == nil) != (errR == nil) {
			t.Fatalf("case %d: verdicts disagree: view %v, read %v", ci, errV, errR)
		}
	}
}

// TestViewAliasesBuffer checks the zero-copy property: a viewed term's
// bytes live inside the source buffer, not in a heap copy.
func TestViewAliasesBuffer(t *testing.T) {
	_, data := serializedDict(t)
	vd, err := View(data)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	var term string
	for id := uint32(0); id < vd.NumSO(); id++ {
		if s, ok := vd.DecodeSO(id); ok && len(s) > 0 {
			term = s
			break
		}
	}
	if term == "" {
		t.Fatal("no non-empty term to check")
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(term)))
	lo := uintptr(unsafe.Pointer(&data[0]))
	if p < lo || p >= lo+uintptr(len(data)) {
		t.Fatal("viewed term does not alias the source buffer")
	}
}

// TestViewGrowsAfterLoad checks that a view-loaded dictionary still
// accepts appends (the live layer's path) once the lazy maps are built.
func TestViewGrowsAfterLoad(t *testing.T) {
	_, data := serializedDict(t)
	vd, err := View(data)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	n := vd.NumSO()
	id := vd.AddSO("zz-new-term")
	if id != n {
		t.Fatalf("AddSO = %d, want %d", id, n)
	}
	if got, ok := vd.EncodeSO("zz-new-term"); !ok || got != id {
		t.Fatalf("EncodeSO after Add = %d, %v", got, ok)
	}
	if got := vd.AddSO("zz-new-term"); got != id {
		t.Fatalf("re-Add = %d, want %d", got, id)
	}
}
