package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func near(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %.8g, want %.8g (tol %g)", msg, got, want, tol)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	near(t, NormalCDF(0), 0.5, 1e-12, "Phi(0)")
	near(t, NormalCDF(1.959963985), 0.975, 1e-6, "Phi(1.96)")
	near(t, NormalCDF(-1.644853627), 0.05, 1e-6, "Phi(-1.645)")
	near(t, NormalSF(2.326347874), 0.01, 1e-6, "SF(2.326)")
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{1e-8, 0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999, 1 - 1e-8} {
		z := NormalQuantile(p)
		near(t, NormalCDF(z), p, 1e-9, "CDF(Quantile(p))")
	}
	near(t, NormalQuantile(0.975), 1.959963985, 1e-7, "Quantile(0.975)")
	near(t, NormalQuantile(0.5), 0, 1e-12, "Quantile(0.5)")
}

func TestChiSquareKnownValues(t *testing.T) {
	// Classic critical values: P(X > x) = 0.05.
	near(t, ChiSquareSF(3.841459, 1), 0.05, 1e-5, "chi2 df=1")
	near(t, ChiSquareSF(5.991465, 2), 0.05, 1e-5, "chi2 df=2")
	near(t, ChiSquareSF(19.67514, 11), 0.05, 1e-5, "chi2 df=11")
	near(t, ChiSquareSF(0, 3), 1, 1e-12, "chi2 at 0")
	// df=2 has closed form exp(-x/2).
	for _, x := range []float64{0.5, 1, 2, 5, 10} {
		near(t, ChiSquareSF(x, 2), math.Exp(-x/2), 1e-10, "chi2 df=2 closed form")
	}
}

func TestStudentTKnownValues(t *testing.T) {
	// Two-sided critical values at alpha = 0.05.
	near(t, StudentTSF2(2.085963, 20), 0.05, 1e-5, "t df=20")
	near(t, StudentTSF2(2.570582, 5), 0.05, 1e-5, "t df=5")
	near(t, StudentTSF2(12.7062, 1), 0.05, 1e-4, "t df=1")
	near(t, StudentTSF2(0, 10), 1, 1e-12, "t at 0")
	// df=1 is Cauchy: P(|T|>1) = 0.5.
	near(t, StudentTSF2(1, 1), 0.5, 1e-8, "Cauchy")
}

func TestMedianAndMean(t *testing.T) {
	near(t, Median([]float64{3, 1, 2}), 2, 0, "odd median")
	near(t, Median([]float64{4, 1, 3, 2}), 2.5, 0, "even median")
	near(t, Mean([]float64{1, 2, 3, 4}), 2.5, 0, "mean")
}

func TestRanksWithTies(t *testing.T) {
	ranks, tie := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
	if tie != 6 { // one tie group of 2: 2^3-2
		t.Fatalf("tieTerm = %g, want 6", tie)
	}
}

func TestRanksNoTies(t *testing.T) {
	ranks, tie := Ranks([]float64{5, 1, 3})
	want := []float64{3, 1, 2}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
	if tie != 0 {
		t.Fatalf("tieTerm = %g, want 0", tie)
	}
}

func TestKruskalWallisTextbook(t *testing.T) {
	// Three clearly different groups: H large, p tiny.
	g1 := []float64{1, 2, 3, 4, 5}
	g2 := []float64{11, 12, 13, 14, 15}
	g3 := []float64{21, 22, 23, 24, 25}
	res := KruskalWallis(g1, g2, g3)
	if res.DF != 2 {
		t.Fatalf("DF = %d, want 2", res.DF)
	}
	// Complete separation of 3 groups of 5: H = 12/(15*16)*(15²/5+40²/5+65²/5)-3*16 = 12.5.
	near(t, res.H, 12.5, 1e-9, "H complete separation")
	if res.P > 0.01 {
		t.Fatalf("P = %g, want < 0.01", res.P)
	}
}

func TestKruskalWallisIdenticalGroups(t *testing.T) {
	g := []float64{1, 2, 3, 4, 5, 6}
	res := KruskalWallis(g, g, g)
	if res.P < 0.9 {
		t.Fatalf("identical groups: P = %g, want ≈ 1", res.P)
	}
}

func TestKruskalWallisScipyReference(t *testing.T) {
	// scipy.stats.kruskal([2.9,3.0,2.5,2.6,3.2],[3.8,2.7,4.0,2.4],[2.8,3.4,3.7,2.2,2.0])
	// = H 0.7714, p 0.6799 (classic airquality-style example from Conover).
	g1 := []float64{2.9, 3.0, 2.5, 2.6, 3.2}
	g2 := []float64{3.8, 2.7, 4.0, 2.4}
	g3 := []float64{2.8, 3.4, 3.7, 2.2, 2.0}
	res := KruskalWallis(g1, g2, g3)
	near(t, res.H, 0.7714286, 1e-4, "H")
	near(t, res.P, 0.6799648, 1e-4, "P")
}

func TestConoverSeparatedGroupsSignificant(t *testing.T) {
	g1 := []float64{1, 2, 3, 4, 5}
	g2 := []float64{11, 12, 13, 14, 15}
	g3 := []float64{21, 22, 23, 24, 25}
	res := Conover(g1, g2, g3)
	for i := 0; i < 3; i++ {
		if res.P[i][i] != 1 {
			t.Fatalf("diagonal P[%d][%d] = %g", i, i, res.P[i][i])
		}
		for j := i + 1; j < 3; j++ {
			if res.P[i][j] > 0.01 {
				t.Fatalf("P[%d][%d] = %g, want < 0.01", i, j, res.P[i][j])
			}
			if res.P[i][j] != res.P[j][i] {
				t.Fatal("Conover matrix not symmetric")
			}
		}
	}
}

func TestConoverOverlappingGroupsNotSignificant(t *testing.T) {
	g1 := []float64{1, 3, 5, 7, 9}
	g2 := []float64{2, 4, 6, 8, 10}
	g3 := []float64{1.5, 3.5, 5.5, 7.5, 9.5}
	res := Conover(g1, g2, g3)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if res.P[i][j] < 0.2 {
				t.Fatalf("interleaved groups: P[%d][%d] = %g, want large", i, j, res.P[i][j])
			}
		}
	}
}

func TestShapiroWilkNormalSample(t *testing.T) {
	// Deterministic near-normal sample: normal quantiles themselves.
	n := 30
	x := make([]float64, n)
	for i := range x {
		x[i] = NormalQuantile((float64(i) + 0.5) / float64(n))
	}
	res := ShapiroWilk(x)
	if res.W < 0.97 {
		t.Fatalf("W = %g for perfect quantiles, want ≈ 1", res.W)
	}
	if res.P < 0.5 {
		t.Fatalf("P = %g for perfect quantiles, want large", res.P)
	}
}

func TestShapiroWilkExponentialRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 50
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.ExpFloat64()
	}
	res := ShapiroWilk(x)
	if res.P > 0.01 {
		t.Fatalf("P = %g for exponential sample, want < 0.01", res.P)
	}
}

func TestShapiroWilkSkewedSampleRejects(t *testing.T) {
	// A strongly right-skewed sample (one far outlier) must reject
	// normality; this anchors the W and p direction without depending on
	// third-party rounding.
	x := []float64{148, 154, 158, 160, 161, 162, 166, 170, 182, 195, 236}
	res := ShapiroWilk(x)
	if res.W > 0.85 {
		t.Fatalf("W = %g for skewed sample, want < 0.85", res.W)
	}
	if res.P > 0.05 {
		t.Fatalf("P = %g for skewed sample, want < 0.05", res.P)
	}
}

func TestShapiroWilkFalsePositiveRateNearAlpha(t *testing.T) {
	// Under H0, p-values are ~uniform: the rejection rate at alpha = 0.05
	// over many normal samples should be near 5%.
	rng := rand.New(rand.NewSource(42))
	const trials = 2000
	rejected := 0
	for k := 0; k < trials; k++ {
		x := make([]float64, 20)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if ShapiroWilk(x).P < 0.05 {
			rejected++
		}
	}
	rate := float64(rejected) / trials
	if rate < 0.02 || rate > 0.09 {
		t.Fatalf("false positive rate %.3f at alpha=0.05, want ≈ 0.05", rate)
	}
}

func TestShapiroWilkSmallSamples(t *testing.T) {
	for _, n := range []int{3, 4, 5, 7, 11, 12} {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i) + 0.1*float64(i%3)
		}
		res := ShapiroWilk(x)
		if res.W <= 0 || res.W > 1 {
			t.Fatalf("n=%d: W = %g outside (0,1]", n, res.W)
		}
		if res.P < 0 || res.P > 1 {
			t.Fatalf("n=%d: P = %g outside [0,1]", n, res.P)
		}
	}
}

func TestSelectFastestClearWinner(t *testing.T) {
	fast := []float64{1.0, 1.1, 0.9, 1.05, 0.95}
	slow := []float64{5.0, 5.1, 4.9, 5.05, 4.95}
	slower := []float64{9.0, 9.1, 8.9, 9.05, 8.95}
	sel := SelectFastest([][]float64{slow, fast, slower}, 0.05)
	if sel.Best != 1 {
		t.Fatalf("Best = %d, want 1", sel.Best)
	}
	if len(sel.Tied) != 1 || sel.Tied[0] != 1 {
		t.Fatalf("Tied = %v, want [1]", sel.Tied)
	}
}

func TestSelectFastestAllTiedWhenIdentical(t *testing.T) {
	g := []float64{1, 2, 3, 4, 5}
	sel := SelectFastest([][]float64{g, g, g}, 0.05)
	if len(sel.Tied) != 3 {
		t.Fatalf("Tied = %v, want all three", sel.Tied)
	}
}

func TestSelectFastestStatisticalTie(t *testing.T) {
	a := []float64{1.00, 1.02, 0.98, 1.01, 0.99}
	b := []float64{1.01, 1.03, 0.97, 1.02, 1.00} // indistinguishable from a
	c := []float64{9.0, 9.2, 8.8, 9.1, 9.0}
	sel := SelectFastest([][]float64{a, b, c}, 0.05)
	if sel.Best != 0 {
		t.Fatalf("Best = %d, want 0", sel.Best)
	}
	hasB := false
	hasC := false
	for _, i := range sel.Tied {
		if i == 1 {
			hasB = true
		}
		if i == 2 {
			hasC = true
		}
	}
	if !hasB {
		t.Fatalf("Tied = %v should include the indistinguishable group 1", sel.Tied)
	}
	if hasC {
		t.Fatalf("Tied = %v should exclude the slow group 2", sel.Tied)
	}
}

// Property: Kruskal-Wallis p-value is in [0,1] and invariant to monotone
// shifts of all groups together.
func TestPropertyKWShiftInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(base float64) []float64 {
			g := make([]float64, 6)
			for i := range g {
				g[i] = base + rng.Float64()
			}
			return g
		}
		g1, g2, g3 := mk(0), mk(0.3), mk(0.6)
		r1 := KruskalWallis(g1, g2, g3)
		shift := func(g []float64) []float64 {
			out := make([]float64, len(g))
			for i := range g {
				out[i] = g[i]*2 + 100 // strictly monotone transform
			}
			return out
		}
		r2 := KruskalWallis(shift(g1), shift(g2), shift(g3))
		return r1.P >= 0 && r1.P <= 1 && math.Abs(r1.H-r2.H) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStudentTDegenerateArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("df<=0 did not panic")
		}
	}()
	StudentTSF2(1, 0)
}

func TestNormalQuantileBoundsPanic(t *testing.T) {
	for _, p := range []float64{0, 1, -0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NormalQuantile(%g) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestEmptySamplePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Median(nil) },
		func() { Mean(nil) },
		func() { KruskalWallis([]float64{1}) },
		func() { KruskalWallis([]float64{1}, nil) },
		func() { Conover([]float64{1}) },
		func() { ShapiroWilk([]float64{1, 2}) },
		func() { ShapiroWilk([]float64{3, 3, 3, 3}) },
		func() { SelectFastest([][]float64{{1}}, 0.05) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
