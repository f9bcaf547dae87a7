package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	got := Geomean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("Geomean(1,4) = %v, want 2", got)
	}
	got = Geomean([]float64{2, 2, 2})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("Geomean(2,2,2) = %v, want 2", got)
	}
}

func TestGeomeanPanics(t *testing.T) {
	for _, xs := range [][]float64{nil, {}, {1, 0}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", xs)
				}
			}()
			Geomean(xs)
		}()
	}
}

// Property: geomean lies between min and max.
func TestGeomeanBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)/16 + 0.5 // strictly positive
		}
		g := Geomean(xs)
		return g >= Min(xs)-1e-9 && g <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 8}, 2)
	want := []float64{1, 2, 4}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Normalize = %v, want %v", out, want)
		}
	}
}

func TestNormalizeDoesNotMutate(t *testing.T) {
	in := []float64{2, 4}
	Normalize(in, 2)
	if in[0] != 2 || in[1] != 4 {
		t.Fatal("Normalize mutated input")
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Min(xs) != 1 || Max(xs) != 5 || Median(xs) != 3 {
		t.Fatalf("min/max/median = %v %v %v", Min(xs), Max(xs), Median(xs))
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even-length median wrong")
	}
}
