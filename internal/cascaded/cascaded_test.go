package cascaded

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/sketch"
)

// bruteNorm computes ‖A‖_(p,k) from a dense map, the reference for the
// incremental tracker.
func bruteNorm(cells map[[2]uint64]int64, p, k float64) float64 {
	rows := map[uint64]float64{}
	for key, c := range cells {
		rows[key[0]] += math.Pow(math.Abs(float64(c)), k)
	}
	var total float64
	for _, fk := range rows {
		total += math.Pow(fk, p/k)
	}
	return math.Pow(total, 1/p)
}

func TestExactMatchesBruteForce(t *testing.T) {
	for _, pk := range [][2]float64{{1, 2}, {2, 2}, {2, 1}, {1.5, 2.5}} {
		p, k := pk[0], pk[1]
		e := NewExact(p, k)
		cells := map[[2]uint64]int64{}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 3000; i++ {
			u := Update{Row: rng.Uint64() % 20, Col: rng.Uint64() % 30, Delta: 1}
			e.Apply(u)
			cells[[2]uint64{u.Row, u.Col}] += u.Delta
			if i%500 == 499 {
				want := bruteNorm(cells, p, k)
				if math.Abs(e.Norm()-want) > 1e-6*want {
					t.Fatalf("(p=%v,k=%v) at %d: incremental %v != brute %v", p, k, i, e.Norm(), want)
				}
			}
		}
	}
}

func TestExactHandlesCancellation(t *testing.T) {
	e := NewExact(1, 2)
	e.Apply(Update{Row: 1, Col: 1, Delta: 5})
	e.Apply(Update{Row: 1, Col: 2, Delta: 12})
	// Row L2 = 13, single row: norm = 13.
	if math.Abs(e.Norm()-13) > 1e-9 {
		t.Errorf("norm = %v, want 13", e.Norm())
	}
	e.Apply(Update{Row: 1, Col: 1, Delta: -5})
	e.Apply(Update{Row: 1, Col: 2, Delta: -12})
	if math.Abs(e.Norm()) > 1e-6 {
		t.Errorf("norm after cancellation = %v, want 0", e.Norm())
	}
}

func TestCascade22EqualsFlattenedL2(t *testing.T) {
	prop := func(updates []struct {
		R, C uint8
		D    int8
	}) bool {
		e := NewExact(2, 2)
		var sumSq float64
		cells := map[[2]uint64]int64{}
		for _, u := range updates {
			e.Apply(Update{Row: uint64(u.R), Col: uint64(u.C), Delta: int64(u.D)})
			cells[[2]uint64{uint64(u.R), uint64(u.C)}] += int64(u.D)
		}
		for _, c := range cells {
			sumSq += float64(c) * float64(c)
		}
		return math.Abs(e.Norm()-math.Sqrt(sumSq)) < 1e-6*(math.Sqrt(sumSq)+1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMonotoneOnInsertionsProperty(t *testing.T) {
	prop := func(rows, cols []uint8) bool {
		e := NewExact(1.5, 2)
		prev := 0.0
		n := len(rows)
		if len(cols) < n {
			n = len(cols)
		}
		for i := 0; i < n; i++ {
			e.Apply(Update{Row: uint64(rows[i] % 8), Col: uint64(cols[i] % 8), Delta: 1})
			if e.Norm() < prev-1e-9 {
				return false
			}
			prev = e.Norm()
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFlipBoundCoversEmpirical(t *testing.T) {
	const eps = 0.25
	rng := rand.New(rand.NewSource(7))
	e := NewExact(1, 2)
	var seq []float64
	var maxCount int64 = 1
	cells := map[[2]uint64]int64{}
	for i := 0; i < 8000; i++ {
		u := Update{Row: rng.Uint64() % 16, Col: rng.Uint64() % 64, Delta: 1}
		e.Apply(u)
		cells[[2]uint64{u.Row, u.Col}]++
		if c := cells[[2]uint64{u.Row, u.Col}]; c > maxCount {
			maxCount = c
		}
		seq = append(seq, e.Norm())
	}
	emp := core.FlipNumber(seq, eps)
	bound := FlipBound(1, 2, eps, 16, 64, float64(maxCount))
	if emp > bound {
		t.Errorf("empirical cascade flip number %d exceeds Prop 3.4 bound %d", emp, bound)
	}
}

func TestRobustCascadeTracks(t *testing.T) {
	const eps = 0.3
	const cols = 64
	rob, err := robust.Policy{Kind: robust.Ring}.Wrap(eps, 0.05, 16*cols, 1, Problem(1, 2, cols))
	if err != nil {
		t.Fatal(err)
	}
	truth := NewExact(1, 2)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 6000; i++ {
		row, col := rng.Uint64()%16, rng.Uint64()%cols
		rob.Update(row*cols+col, 1)
		truth.Apply(Update{Row: row, Col: col, Delta: 1})
		if i < 50 {
			continue
		}
		if got, want := rob.Estimate(), truth.Norm(); math.Abs(got-want) > eps*want {
			t.Fatalf("robust cascade %v not within ε of %v at step %d", got, want, i)
		}
	}
	if rob.(sketch.RobustnessReporter).Robustness().Exhausted {
		t.Error("robust cascade exhausted its ring")
	}
}

func TestRobust22SketchedTracks(t *testing.T) {
	const eps = 0.3
	rob := robust.NewFp(2, eps, 0.05, 1<<16, 3)
	truth := NewExact(2, 2)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8000; i++ {
		row, col := rng.Uint64()%32, rng.Uint64()%128
		rob.Update(Key(row, col), 1)
		truth.Apply(Update{Row: row, Col: col, Delta: 1})
		if i < 100 {
			continue
		}
		if got, want := rob.Estimate(), truth.Norm(); math.Abs(got-want) > 2*eps*want {
			t.Fatalf("sketched (2,2) cascade %v not within 2ε of %v at step %d", got, want, i)
		}
	}
}

func TestKeyMixes(t *testing.T) {
	// Grid coordinates must not collide under flattening at small scales.
	seen := map[uint64][2]uint64{}
	for r := uint64(0); r < 256; r++ {
		for c := uint64(0); c < 256; c++ {
			k := Key(r, c)
			if prev, ok := seen[k]; ok {
				t.Fatalf("Key collision: (%d,%d) and (%d,%d)", r, c, prev[0], prev[1])
			}
			seen[k] = [2]uint64{r, c}
		}
	}
}

func TestNewExactRejectsBadParams(t *testing.T) {
	for _, pk := range [][2]float64{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewExact accepted p=%v k=%v", pk[0], pk[1])
				}
			}()
			NewExact(pk[0], pk[1])
		}()
	}
}
