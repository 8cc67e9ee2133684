package perfhist

import (
	"math"
	"sort"
)

// Median returns the sample median (average of the middle pair for even
// counts), or NaN for an empty slice. The input is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
