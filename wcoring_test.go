package wcoring

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ltj"
)

func nobelTriples() []StringTriple {
	return []StringTriple{
		{S: "Bohr", P: "adv", O: "Thomson"},
		{S: "Thomson", P: "adv", O: "Strutt"},
		{S: "Wheeler", P: "adv", O: "Bohr"},
		{S: "Thorne", P: "adv", O: "Wheeler"},
		{S: "Nobel", P: "nom", O: "Bohr"},
		{S: "Nobel", P: "nom", O: "Thomson"},
		{S: "Nobel", P: "nom", O: "Thorne"},
		{S: "Nobel", P: "nom", O: "Wheeler"},
		{S: "Nobel", P: "nom", O: "Strutt"},
		{S: "Nobel", P: "win", O: "Bohr"},
		{S: "Nobel", P: "win", O: "Thomson"},
		{S: "Nobel", P: "win", O: "Thorne"},
		{S: "Nobel", P: "win", O: "Strutt"},
	}
}

func nobelStore(t *testing.T, opt Options) *Store {
	t.Helper()
	s, err := NewStore(nobelTriples(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStorePaperQuery(t *testing.T) {
	for _, opt := range []Options{{}, {Compress: true}} {
		store := nobelStore(t, opt)
		sols, err := store.Select([]PatternString{
			{S: "?x", P: "win", O: "?y"},
			{S: "?x", P: "nom", O: "?z"},
			{S: "?z", P: "adv", O: "?y"},
		}, SelectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, s := range sols {
			got = append(got, s["x"]+"/"+s["y"]+"/"+s["z"])
		}
		sort.Strings(got)
		want := []string{"Nobel/Bohr/Wheeler", "Nobel/Strutt/Thomson", "Nobel/Thomson/Bohr"}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("solutions = %v, want %v", got, want)
		}
	}
}

func TestStoreVariablePredicate(t *testing.T) {
	store := nobelStore(t, Options{})
	sols, err := store.Select([]PatternString{
		{S: "Nobel", P: "?rel", O: "Bohr"},
	}, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rels := map[string]bool{}
	for _, s := range sols {
		rels[s["rel"]] = true
	}
	if !rels["nom"] || !rels["win"] || len(rels) != 2 {
		t.Fatalf("rels = %v, want {nom, win}", rels)
	}
}

func TestStoreAbsentConstantIsEmpty(t *testing.T) {
	store := nobelStore(t, Options{})
	sols, err := store.Select([]PatternString{
		{S: "Einstein", P: "win", O: "?y"},
	}, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 0 {
		t.Fatalf("absent constant yielded %d solutions", len(sols))
	}
}

func TestStoreQueryValidation(t *testing.T) {
	store := nobelStore(t, Options{})
	if _, err := store.Select([]PatternString{{S: "", P: "win", O: "?y"}}, SelectOptions{}); err == nil {
		t.Error("empty component accepted")
	}
	if _, err := store.Select([]PatternString{{S: "?", P: "win", O: "?y"}}, SelectOptions{}); err == nil {
		t.Error("unnamed variable accepted")
	}
}

func TestStoreLimit(t *testing.T) {
	store := nobelStore(t, Options{})
	sols, err := store.Select([]PatternString{
		{S: "?s", P: "?p", O: "?o"},
	}, SelectOptions{QueryOptions: QueryOptions{Limit: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 4 {
		t.Fatalf("limit 4: got %d", len(sols))
	}
}

func TestStoreSerializationRoundTrip(t *testing.T) {
	store := nobelStore(t, Options{})
	var buf bytes.Buffer
	if _, err := store.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != store.Len() {
		t.Fatalf("Len after reload = %d, want %d", loaded.Len(), store.Len())
	}
	sols, err := loaded.Select([]PatternString{
		{S: "?who", P: "adv", O: "Bohr"},
	}, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || sols[0]["who"] != "Wheeler" {
		t.Fatalf("reloaded store: %v", sols)
	}
}

func TestReadStoreCorrupt(t *testing.T) {
	store := nobelStore(t, Options{})
	var buf bytes.Buffer
	if _, err := store.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadStore(bytes.NewReader(data[:len(data)/3])); err == nil {
		t.Error("accepted truncated store")
	}
	if _, err := ReadStore(bytes.NewReader(nil)); err == nil {
		t.Error("accepted empty stream")
	}
	bad := append([]byte(nil), data...)
	bad[10] ^= 0xFF // corrupt inside the dictionary section
	if _, err := ReadStore(bytes.NewReader(bad)); err == nil {
		t.Error("accepted corrupted dictionary")
	}
}

func TestEvaluateTimeoutSurfaced(t *testing.T) {
	// Build a dense store and give it an impossible deadline.
	var ts []StringTriple
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			ts = append(ts, StringTriple{S: name(i), P: "e", O: name(j)})
		}
	}
	store, err := NewStore(ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = store.Select([]PatternString{
		{S: "?a", P: "e", O: "?b"},
		{S: "?b", P: "e", O: "?c"},
		{S: "?c", P: "e", O: "?d"},
	}, SelectOptions{QueryOptions: QueryOptions{Timeout: time.Nanosecond}})
	if err == nil {
		t.Skip("query finished within a nanosecond budget")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", err)
	}
}

// TestSelectTimeoutKeepsPartialRows: a query cut by its timeout returns
// the solutions found so far, with an error that is both ErrTimeout and
// the engine's ltj.ErrTimeout.
func TestSelectTimeoutKeepsPartialRows(t *testing.T) {
	var ts []StringTriple
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			ts = append(ts, StringTriple{S: name(i), P: "e", O: name(j)})
		}
	}
	store, err := NewStore(ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 40^4 solutions: far more than a millisecond's work.
	sols, err := store.Select([]PatternString{
		{S: "?a", P: "e", O: "?b"},
		{S: "?b", P: "e", O: "?c"},
		{S: "?c", P: "e", O: "?d"},
	}, SelectOptions{QueryOptions: QueryOptions{Timeout: time.Millisecond}})
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, ltj.ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout (ltj.ErrTimeout)", err)
	}
	if len(sols) == 0 {
		t.Fatal("timed-out query returned no rows")
	}
	if s := sols[0]; len(s) != 4 || s["a"] == "" || s["d"] == "" {
		t.Fatalf("partial row %v is not a decoded solution", s)
	}
}

func name(i int) string { return string(rune('a'+i/26)) + string(rune('a'+i%26)) }

func TestIDLevelAPI(t *testing.T) {
	g := NewGraph([]Triple{{S: 0, P: 0, O: 1}, {S: 1, P: 0, O: 2}, {S: 0, P: 0, O: 2}})
	r := NewRing(g, Options{})
	sols, err := Evaluate(r, Pattern{
		TP(Var("x"), Const(0), Var("y")),
		TP(Var("y"), Const(0), Var("z")),
		TP(Var("x"), Const(0), Var("z")),
	}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || sols[0]["x"] != 0 || sols[0]["y"] != 1 || sols[0]["z"] != 2 {
		t.Fatalf("triangle = %v", sols)
	}
}

func TestParseTSVReExport(t *testing.T) {
	ts, err := ParseTSV(strings.NewReader("a b c\n"))
	if err != nil || len(ts) != 1 {
		t.Fatalf("ParseTSV = %v, %v", ts, err)
	}
}

func TestStoreSelect(t *testing.T) {
	store := nobelStore(t, Options{})
	// Distinct nominees, projected and ordered.
	sols, err := store.Select([]PatternString{
		{S: "Nobel", P: "nom", O: "?who"},
	}, SelectOptions{
		Project:  []string{"who"},
		Distinct: true,
		OrderBy:  []string{"who"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 5 {
		t.Fatalf("got %d nominees, want 5", len(sols))
	}
	for i := 1; i < len(sols); i++ {
		if sols[i-1]["who"] >= sols[i]["who"] {
			t.Fatalf("not ordered: %v", sols)
		}
	}
	// Offset + limit window.
	sols, err = store.Select([]PatternString{
		{S: "Nobel", P: "nom", O: "?who"},
	}, SelectOptions{
		QueryOptions: QueryOptions{Limit: 2},
		Project:      []string{"who"},
		OrderBy:      []string{"who"},
		Offset:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 || sols[0]["who"] != "Strutt" {
		t.Fatalf("window = %v", sols)
	}
	// Unknown projected variable errors.
	if _, err := store.Select([]PatternString{
		{S: "Nobel", P: "nom", O: "?who"},
	}, SelectOptions{Project: []string{"nope"}}); err == nil {
		t.Error("unknown projection accepted")
	}
}

func TestStoreReach(t *testing.T) {
	store := nobelStore(t, Options{})
	// Advisor descendants of Thorne.
	got, err := store.Reach("Thorne", "adv+")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Bohr", "Strutt", "Thomson", "Wheeler"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Reach(Thorne, adv+) = %v, want %v", got, want)
	}
	// Inverse path: who advised Bohr, transitively upward.
	got, err = store.Reach("Strutt", "^adv+")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("Reach(Strutt, ^adv+) = %v, want 4 ancestors", got)
	}
	// Unknown source: empty, no error.
	got, err = store.Reach("Einstein", "adv")
	if err != nil || len(got) != 0 {
		t.Fatalf("unknown source: %v, %v", got, err)
	}
	// Bad path: error.
	if _, err := store.Reach("Bohr", "adv//"); err == nil {
		t.Fatal("malformed path accepted")
	}
	// Unknown predicate: error.
	if _, err := store.Reach("Bohr", "knows"); err == nil {
		t.Fatal("unknown predicate accepted")
	}
}
