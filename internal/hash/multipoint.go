package hash

// This file implements batched (multipoint) evaluation of a degree-d
// polynomial at d points via a subproduct tree, the substrate behind the
// paper's Proposition 5.3 (von zur Gathen & Gerhard, Modern Computer
// Algebra, ch. 10). The paper uses it to evaluate a d-wise independent hash
// function on a batch of d stream items at amortized cost well below d
// field operations per item, which is what gives Theorem 1.2 its
// O(polyloglog) worst-case update time.
//
// Over GF(2^61 − 1) there is no power-of-two root of unity of useful order,
// so the inner polynomial multiplication uses Karatsuba rather than an
// NTT; the batch evaluation costs O(M(d)·log d) field operations with
// M(d) = O(d^1.585), still far below the d^2 cost of d Horner evaluations,
// and the asymptotic claim of Prop. 5.3 is recovered with an FFT-capable
// modulus (cmd/experiments' fastf0 measures the break-even).

// polyAdd returns a + b (coefficient-wise, mod Prime).
func polyAdd(a, b []uint64) []uint64 {
	if len(a) < len(b) {
		a, b = b, a
	}
	out := make([]uint64, len(a))
	copy(out, a)
	for i := range b {
		out[i] = Add(out[i], b[i])
	}
	return out
}

// polySub returns a − b.
func polySub(a, b []uint64) []uint64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]uint64, n)
	for i := range out {
		var av, bv uint64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		out[i] = Sub(av, bv)
	}
	return trim(out)
}

func trim(a []uint64) []uint64 {
	n := len(a)
	for n > 1 && a[n-1] == 0 {
		n--
	}
	return a[:n]
}

const karatsubaCutoff = 32

// polyMul returns a · b using Karatsuba above the cutoff.
func polyMul(a, b []uint64) []uint64 {
	a, b = trim(a), trim(b)
	if len(a) == 1 && a[0] == 0 || len(b) == 1 && b[0] == 0 {
		return []uint64{0}
	}
	if len(a) < karatsubaCutoff || len(b) < karatsubaCutoff {
		return polyMulBasic(a, b)
	}
	half := len(a)
	if len(b) > half {
		half = len(b)
	}
	half = (half + 1) / 2
	a0, a1 := split(a, half)
	b0, b1 := split(b, half)
	z0 := polyMul(a0, b0)
	z2 := polyMul(a1, b1)
	z1 := polySub(polySub(polyMul(polyAdd(a0, a1), polyAdd(b0, b1)), z0), z2)
	out := make([]uint64, len(a)+len(b)-1)
	accumulate(out, z0, 0)
	accumulate(out, z1, half)
	accumulate(out, z2, 2*half)
	return trim(out)
}

func split(a []uint64, at int) (lo, hi []uint64) {
	if at >= len(a) {
		return a, []uint64{0}
	}
	return a[:at], a[at:]
}

func accumulate(dst, src []uint64, shift int) {
	for i, v := range src {
		if shift+i < len(dst) {
			dst[shift+i] = Add(dst[shift+i], v)
		}
	}
}

func polyMulBasic(a, b []uint64) []uint64 {
	out := make([]uint64, len(a)+len(b)-1)
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			out[i+j] = Add(out[i+j], Mul(av, bv))
		}
	}
	return out
}

// polyModBasic returns a mod b by schoolbook long division — the base
// case for small operands and the reference implementation for tests.
func polyModBasic(a, b []uint64) []uint64 {
	a, b = trim(a), trim(b)
	if len(b) == 1 {
		if b[0] == 0 {
			panic("hash: polyMod by zero polynomial")
		}
		return []uint64{0}
	}
	rem := make([]uint64, len(a))
	copy(rem, a)
	invLead := Inv(b[len(b)-1])
	for len(rem) >= len(b) {
		rem = trim(rem)
		if len(rem) < len(b) {
			break
		}
		q := Mul(rem[len(rem)-1], invLead)
		off := len(rem) - len(b)
		for i, bv := range b {
			rem[off+i] = Sub(rem[off+i], Mul(q, bv))
		}
		rem = rem[:len(rem)-1]
	}
	return trim(rem)
}

// reverse returns the coefficient-reversed polynomial padded/truncated to
// length n (the x^{n−1}·f(1/x) transform used by fast division).
func reverse(a []uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := 0; i < n && i < len(a); i++ {
		out[i] = a[len(a)-1-i]
	}
	return out
}

// truncate returns a mod x^n.
func truncate(a []uint64, n int) []uint64 {
	if len(a) <= n {
		return a
	}
	return trim(append([]uint64(nil), a[:n]...))
}

// polyInvSeries returns the power-series inverse of f modulo x^n via
// Newton iteration (g ← g·(2 − f·g) mod x^{2k}); f[0] must be non-zero.
// Cost O(M(n)).
func polyInvSeries(f []uint64, n int) []uint64 {
	if len(f) == 0 || f[0] == 0 {
		panic("hash: polyInvSeries needs a unit constant term")
	}
	g := []uint64{Inv(f[0])}
	for k := 1; k < n; k *= 2 {
		m := 2 * k
		if m > n {
			m = n
		}
		fg := truncate(polyMul(truncate(f, m), g), m)
		// 2 − f·g
		two := make([]uint64, len(fg))
		copy(two, fg)
		for i := range two {
			two[i] = Neg(two[i])
		}
		two[0] = Add(two[0], 2)
		g = truncate(polyMul(g, two), m)
	}
	return truncate(g, n)
}

const fastDivCutoff = 64

// polyMod returns a mod b. Above the cutoff it uses fast division
// (reversal + Newton power-series inversion, von zur Gathen ch. 9), giving
// O(M(d)) per division and hence O(M(d)·log d) for the whole subproduct
// descent — the Proposition 5.3 cost profile.
func polyMod(a, b []uint64) []uint64 {
	a, b = trim(a), trim(b)
	if len(b) <= fastDivCutoff || len(a)-len(b) <= fastDivCutoff {
		return polyModBasic(a, b)
	}
	if len(a) < len(b) {
		return a
	}
	qLen := len(a) - len(b) + 1
	revA := reverse(a, len(a))
	revB := reverse(b, len(b))
	invRevB := polyInvSeries(revB, qLen)
	qRev := truncate(polyMul(truncate(revA, qLen), invRevB), qLen)
	q := reverse(qRev, qLen)
	qb := polyMul(q, b)
	r := polySub(a, qb)
	return truncate(r, len(b)-1)
}

// subproductTree holds the binary tree of Π(x − x_i) polynomials.
type subproductTree struct {
	points []uint64
	nodes  [][][]uint64 // nodes[level][i] is the product of a contiguous block
}

func buildTree(points []uint64) *subproductTree {
	n := len(points)
	level := make([][]uint64, n)
	for i, x := range points {
		level[i] = []uint64{Neg(Canon(x)), 1} // (x − x_i)
	}
	t := &subproductTree{points: points}
	t.nodes = append(t.nodes, level)
	for len(level) > 1 {
		next := make([][]uint64, (len(level)+1)/2)
		for i := 0; i < len(level)/2; i++ {
			next[i] = polyMul(level[2*i], level[2*i+1])
		}
		if len(level)%2 == 1 {
			next[len(next)-1] = level[len(level)-1]
		}
		level = next
		t.nodes = append(t.nodes, level)
	}
	return t
}

// evalDown recursively reduces p modulo the subtree rooted at
// (level, idx) and writes leaf values into out.
func (t *subproductTree) evalDown(p []uint64, level, idx int, out []uint64) {
	p = polyMod(p, t.nodes[level][idx])
	if level == 0 {
		out[idx] = p[0]
		return
	}
	left := 2 * idx
	right := left + 1
	t.evalDown(p, level-1, left, out)
	if right < len(t.nodes[level-1]) && (right>>1) == idx {
		t.evalDown(p, level-1, right, out)
	}
}

// EvalMulti evaluates the polynomial at every point using the subproduct
// tree. It returns the same values as calling Eval point-by-point.
func (p Poly) EvalMulti(points []uint64) []uint64 {
	if len(points) == 0 {
		return nil
	}
	// For tiny batches or low degrees Horner is faster.
	if len(points) < 16 || p.Degree() < 16 {
		out := make([]uint64, len(points))
		for i, x := range points {
			out[i] = p.Eval(x)
		}
		return out
	}
	canon := make([]uint64, len(points))
	for i, x := range points {
		canon[i] = Canon(x)
	}
	t := buildTree(canon)
	out := make([]uint64, len(points))
	root := len(t.nodes) - 1
	t.evalDown(p.coeffs, root, 0, out)
	return out
}
