package main

import (
	"math"
	"testing"
)

// TestFlippedBitFailsCheck: the oracle's answers pass, and one flipped bit
// in one answer fails, on a set from each dataset the workloads use.
func TestFlippedBitFailsCheck(t *testing.T) {
	for _, name := range []string{"Q5", "telco"} {
		ds, err := loadDataset(name)
		if err != nil {
			t.Fatal(err)
		}
		v := ds.set.Vars()[0]
		if err := flippedBitIsCaught(ds.set, map[string]float64{ds.set.Vocab.Name(v): 0.8}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	var c checker
	c.selfTest()
	if !c.ok() {
		t.Errorf("self-test failed: %v", c.problems)
	}
}

// TestParseRowMatchesOracleDigest: the reflection-free parser and the
// encoding/json fallback agree with digestOf on the same answers.
func TestParseRowMatchesOracleDigest(t *testing.T) {
	tags := []string{"a", "b\"quoted", "c"}
	vals := []float64{1.5, 0, 1e-300}
	want := digestOf(tags, vals, len(vals))
	fast := []byte(`{"index":3,"answers":[{"tag":"a","value":1.5},{"tag":"b","value":0},{"tag":"c","value":1e-300}]}` + "\n")
	r, err := parseRow(fast)
	if err != nil {
		t.Fatal(err)
	}
	if plain := digestOf([]string{"a", "b", "c"}, vals, 3); r.index != 3 || r.n != 3 || r.digest != plain {
		t.Errorf("parsed %+v, want digest %x", r, plain)
	}
	escaped := []byte(`{"index":3,"answers":[{"tag":"a","value":1.5},{"tag":"b\"quoted","value":0},{"tag":"c","value":1e-300}]}`)
	if r, err = parseRow(escaped); err != nil || r.digest != want {
		t.Errorf("escaped tag: digest %x, want %x (err %v)", r.digest, want, err)
	}
	flipped := math.Float64frombits(math.Float64bits(1.5) ^ 1)
	if digestOf(tags, []float64{flipped, 0, 1e-300}, 3) == want {
		t.Error("a flipped bit left the digest unchanged")
	}
	if r, _ := parseRow([]byte(`{"index":7,"error":"unknown variable \"zz\""}`)); r.err == "" || r.index != 7 {
		t.Errorf("in-band error not recognised: %+v", r)
	}
}
