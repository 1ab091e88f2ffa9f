package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

var stringCases = []string{
	"", "plain", `"quoted"`, `back\slash`, "<a href='x'>&amp;</a>",
	"\x00\x01\x1f\x7f", "\b\f\n\r\t", "line\xe2\x80\xa8sep\xe2\x80\xa9para",
	"\xff\xfe", "bad\xc3", "\xed\xa0\x80surrogate", "ünïcødé 日本 →",
}

func checkString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := String(nil, s); string(got) != string(want) {
		t.Fatalf("String(%q) = %s, want %s", s, got, want)
	}
}

func TestStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range stringCases {
		checkString(t, s)
	}
}

func TestStringsMatchesEncodingJSON(t *testing.T) {
	for _, ss := range [][]string{nil, {}, {"a"}, stringCases} {
		want, err := json.Marshal(ss)
		if err != nil {
			t.Fatal(err)
		}
		if got := Strings([]byte("x"), ss); string(got) != "x"+string(want) {
			t.Fatalf("Strings(%q) = %s, want x%s", ss, got, want)
		}
	}
}

func TestFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 0.001, 0.597, 1, 12.5, 1234.567,
		1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e20, 1e21, 123456789e20, -0.25, -1e-7, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := Float(nil, f); string(got) != string(want) {
			t.Errorf("Float(%v) = %s, want %s", f, got, want)
		}
	}
}

func FuzzString(f *testing.F) {
	for _, s := range stringCases {
		f.Add(s)
	}
	f.Fuzz(checkString)
}

func FuzzFloat(f *testing.F) {
	f.Add(0.597)
	f.Add(1e-7)
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Skip("encoding/json rejects non-finite numbers")
		}
		want, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		if got := Float(nil, x); string(got) != string(want) {
			t.Fatalf("Float(%v) = %s, want %s", x, got, want)
		}
	})
}
