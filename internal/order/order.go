// Package order provides allocation-free selection of order statistics
// over float64 slices: the quickselect behind every median-of-rows
// estimate in this repository's incremental estimation kernels. Callers
// pass a scratch buffer they own; Select and Median partition it in place
// and allocate nothing.
package order

// Select partially sorts x in place so that x[k] holds the k-th smallest
// element (0-indexed) and returns it; elements before index k are ≤ x[k]
// and elements after are ≥ x[k]. Iterative Hoare quickselect with
// median-of-three pivoting, expected O(len(x)). Panics if k is out of
// range.
func Select(x []float64, k int) float64 {
	if k < 0 || k >= len(x) {
		panic("order: Select index out of range")
	}
	lo, hi := 0, len(x)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if x[mid] < x[lo] {
			x[lo], x[mid] = x[mid], x[lo]
		}
		if x[hi-1] < x[lo] {
			x[lo], x[hi-1] = x[hi-1], x[lo]
		}
		if x[hi-1] < x[mid] {
			x[mid], x[hi-1] = x[hi-1], x[mid]
		}
		pivot := x[mid]
		i, j := lo, hi-1
		for i <= j {
			for x[i] < pivot {
				i++
			}
			for pivot < x[j] {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return x[k]
		}
	}
	return x[k]
}

// UpperMedian returns the element a full sort would place at index
// len(x)/2 — the upper median for even lengths, the median for odd —
// partitioning x in place. It matches the `sorted[len/2]` convention the
// sketches' median-of-rows estimators use.
func UpperMedian(x []float64) float64 {
	return Select(x, len(x)/2)
}

// Median returns the median of x, partitioning it in place: the middle
// element for odd lengths, the mean of the two middle elements for even
// lengths — matching the `(sorted[k-1]+sorted[k])/2` convention of the
// estimators that average their middles.
func Median(x []float64) float64 {
	k := len(x) / 2
	hi := Select(x, k)
	if len(x)%2 == 1 {
		return hi
	}
	// After Select, the lower middle is the maximum of the left partition.
	lo := x[0]
	for _, v := range x[1:k] {
		if v > lo {
			lo = v
		}
	}
	return (lo + hi) / 2
}
