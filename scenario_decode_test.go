package uavnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// referenceUnmarshalScenario is UnmarshalScenario implemented with the
// reflection decoder alone: strict keys, nothing but whitespace after the
// value, then the version, presence and validity checks. The fast Users
// path must agree with it on every input.
func referenceUnmarshalScenario(data []byte) (*Scenario, error) {
	var f scenarioFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, errors.New("trailing bytes after the scenario value")
	}
	if f.Version != scenarioFileVersion {
		return nil, fmt.Errorf("version %d", f.Version)
	}
	if f.Scenario == nil {
		return nil, errors.New("no scenario object")
	}
	if err := f.Scenario.Validate(); err != nil {
		return nil, err
	}
	return f.Scenario, nil
}

// sameScenario reports whether two decoded scenarios are identical, user
// floats compared by bits: reflect.DeepEqual alone cannot tell -0 from 0.
// Everything outside Users comes from the same decoder on both paths.
func sameScenario(a, b *Scenario) error {
	if !reflect.DeepEqual(a, b) {
		return errors.New("scenarios differ")
	}
	for i := range a.Users {
		ua, ub := a.Users[i], b.Users[i]
		for _, p := range [][2]float64{{ua.Pos.X, ub.Pos.X}, {ua.Pos.Y, ub.Pos.Y}, {ua.MinRateBps, ub.MinRateBps}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				return fmt.Errorf("user %d: %v and %v differ in bits", i, p[0], p[1])
			}
		}
	}
	return nil
}

// diffScenarioDecode decodes in with UnmarshalScenario and the reference
// and reports any disagreement on acceptance or on the decoded scenario.
func diffScenarioDecode(in []byte) error {
	got, gotErr := UnmarshalScenario(in)
	want, wantErr := referenceUnmarshalScenario(in)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Errorf("UnmarshalScenario err = %v, reference err = %v", gotErr, wantErr)
	case gotErr != nil:
		return nil
	}
	return sameScenario(got, want)
}

// scenarioTemplate is a small valid scenario file whose Users array reads
// USERS, for splicing hand-written user arrays into.
func scenarioTemplate(t testing.TB) string {
	t.Helper()
	sc, err := GenerateScenario(ScenarioSpec{N: 1, K: 2, Seed: 3, AreaSide: 1000, CellSide: 500})
	if err != nil {
		t.Fatal(err)
	}
	sc.Users = nil
	data, err := MarshalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, `"Users": null`) {
		t.Fatalf("template lacks a null Users member:\n%s", s)
	}
	return strings.Replace(s, `"Users": null`, `"Users": USERS`, 1)
}

// scenarioDecodeSeeds returns the differential corpus: canonical files in
// several layouts, and every input class the fast path must decline.
func scenarioDecodeSeeds(t testing.TB) (fast, declined [][]byte) {
	t.Helper()
	sc, err := GenerateScenario(ScenarioSpec{N: 3, K: 2, Seed: 9, AreaSide: 1000, CellSide: 500})
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := MarshalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, canonical); err != nil {
		t.Fatal(err)
	}
	tmpl := scenarioTemplate(t)
	users := func(s string) []byte { return []byte(strings.Replace(tmpl, "USERS", s, 1)) }
	const u = `{"Pos":{"X":10,"Y":20},"MinRateBps":2000}`

	fast = [][]byte{
		canonical,
		append(append([]byte{}, canonical...), '\n'),
		compact.Bytes(),
		users(`[]`),
		users(`[` + u + `]`),
		users("[ \t\r\n" + `{ "MinRateBps" : 2000 , "Pos" : { "Y" : 20 , "X" : 10 } }` + "\n]"),
		users(`[{"Pos":{"X":-0,"Y":1e-300},"MinRateBps":1.7976931348623157e308}]`),
		users(`[{"Pos":{"X":9007199254740993,"Y":123456789012345678901234567890},"MinRateBps":4.9e-324}]`),
		users(`[{"Pos":{"X":999999999999999,"Y":-999999999999999},"MinRateBps":1000000000000000}]`),
		users(`[{"Pos":{"X":1E5,"Y":1e+5},"MinRateBps":2.50e-1}]`),
		users(`[{"Pos":{"X":0.5,"Y":-0.0},"MinRateBps":1e-400}]`),
		users(`[{"Pos":{"X":1,"Y":2}},{"MinRateBps":3},{}]`),
	}
	declined = [][]byte{
		// Case-folded, escaped, non-ASCII and duplicate keys.
		users(`[{"pos":{"X":10,"Y":20},"MinRateBps":2000}]`),
		users(`[{"Pos":{"x":10,"Y":20},"MinRateBps":2000}]`),
		users(`[{"P\u006fs":{"X":10,"Y":20},"MinRateBps":2000}]`),
		users(`[{"Pos":{"X":10,"Y":20},"MinRateBps":2000,"MinRateBps":3000}]`),
		users(`[{"Pos":{"X":10,"Y":20,"X":30},"MinRateBps":2000}]`),
		[]byte(strings.Replace(tmpl, `"Users": USERS`, `"USERS": [`+u+`]`, 1)),
		[]byte(strings.Replace(tmpl, `"Users": USERS`, `"\u0055sers": [`+u+`]`, 1)),
		[]byte(strings.Replace(tmpl, `"Users": USERS`, `"Users": [`+u+`], "users": []`, 1)),
		[]byte(strings.Replace(tmpl, `"Users": USERS`, `"Users": [`+u+`], "Users": null`, 1)),
		[]byte(strings.Replace(strings.Replace(tmpl, "USERS", "["+u+"]", 1), `"scenario"`, `"Scenario"`, 1)),
		[]byte(strings.Replace(strings.Replace(tmpl, "USERS", "["+u+"]", 1), `"scenario"`, `"ſcenario"`, 1)),
		[]byte(strings.Replace(strings.Replace(tmpl, "USERS", "["+u+"]", 1), `"version": 1,`, `"version": 1, "scenario": {},`, 1)),
		// Nulls.
		users(`null`),
		users(`[null]`),
		users(`[{"Pos":null,"MinRateBps":2000}]`),
		users(`[{"Pos":{"X":null,"Y":20},"MinRateBps":2000}]`),
		// Numbers outside RFC 8259 or float64.
		users(`[{"Pos":{"X":1e400,"Y":20},"MinRateBps":2000}]`),
		users(`[{"Pos":{"X":01,"Y":20},"MinRateBps":2000}]`),
		users(`[{"Pos":{"X":+1,"Y":20},"MinRateBps":2000}]`),
		users(`[{"Pos":{"X":.5,"Y":20},"MinRateBps":2000}]`),
		users(`[{"Pos":{"X":1.,"Y":20},"MinRateBps":2000}]`),
		users(`[{"Pos":{"X":1e,"Y":20},"MinRateBps":2000}]`),
		users(`[{"Pos":{"X":-,"Y":20},"MinRateBps":2000}]`),
		users(`[{"Pos":{"X":"10","Y":20},"MinRateBps":2000}]`),
		users(`[{"Pos":{"X":NaN,"Y":20},"MinRateBps":2000}]`),
		// Unknown fields and broken structure.
		users(`[{"Pos":{"X":10,"Y":20},"Mnrate":2000}]`),
		users(`[{"Pos":{"X":10,"Y":20,"Z":0},"MinRateBps":2000}]`),
		users(`[` + u + `,]`),
		users(`[` + u),
		users(`{}`),
		// Trailing bytes after the document.
		append(append([]byte{}, canonical...), " garbage"...),
		append(append([]byte{}, canonical...), `{"version":2}`...),
		append(append([]byte{}, canonical...), '}'),
	}
	return fast, declined
}

// TestUnmarshalScenarioDifferential runs the seed corpus through the fast
// path and the reference, and pins which inputs take the fast path.
func TestUnmarshalScenarioDifferential(t *testing.T) {
	fast, declined := scenarioDecodeSeeds(t)
	for i, in := range fast {
		if decodeScenarioFast(in) == nil {
			t.Errorf("fast seed %d declined:\n%s", i, in)
		}
		if err := diffScenarioDecode(in); err != nil {
			t.Errorf("fast seed %d: %v\n%s", i, err, in)
		}
	}
	for i, in := range declined {
		if decodeScenarioFast(in) != nil {
			t.Errorf("declined seed %d took the fast path:\n%s", i, in)
		}
		if err := diffScenarioDecode(in); err != nil {
			t.Errorf("declined seed %d: %v\n%s", i, err, in)
		}
	}
}

// TestUnmarshalScenarioUserTypoNamesField pins that a misspelled key inside
// a Users element is still reported by name: the fast path declines it and
// the strict decoder produces the error.
func TestUnmarshalScenarioUserTypoNamesField(t *testing.T) {
	in := strings.Replace(scenarioTemplate(t), "USERS", `[{"Pos":{"X":10,"Y":20},"Mnrate":2000}]`, 1)
	_, err := UnmarshalScenario([]byte(in))
	if err == nil || !strings.Contains(err.Error(), `"Mnrate"`) {
		t.Fatalf("UnmarshalScenario error = %v, want one naming \"Mnrate\"", err)
	}
}

// FuzzUnmarshalScenarioDifferential checks the in-place Users parser
// against the reflection decoder on arbitrary bytes: both must accept or
// both reject, and accepted scenarios must be identical down to float bits.
//
// Run locally with:
//
//	go test -fuzz=FuzzUnmarshalScenarioDifferential -fuzztime=30s .
func FuzzUnmarshalScenarioDifferential(f *testing.F) {
	fast, declined := scenarioDecodeSeeds(f)
	for _, in := range append(fast, declined...) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := diffScenarioDecode(in); err != nil {
			t.Fatalf("%v\ninput: %q", err, in)
		}
	})
}
