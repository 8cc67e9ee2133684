package bench

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, so a percentile moves smoothly as samples are added
// instead of jumping from one sample to the next. xs is not modified; an
// empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// samples holds per-operation values by class: the corpus program or
// solver case an operation belongs to.
type samples map[string][]float64

func (s samples) add(class string, v float64) { s[class] = append(s[class], v) }

func (s samples) count() int {
	n := 0
	for _, xs := range s {
		n += len(xs)
	}
	return n
}

// geoQuantile is the geometric mean over classes of each class's
// q-quantile, so every program weighs the same however fast it compiles,
// and one program's input mix moves the result by its share only.
func (s samples) geoQuantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	logSum := 0.0
	for _, xs := range s {
		logSum += math.Log(quantile(xs, q))
	}
	return math.Exp(logSum / float64(len(s)))
}

const mib = 1 << 20

// heapAllocated reads the runtime's cumulative heap allocation, in bytes.
// runtime.ReadMemStats flushes the per-P allocation caches, so an
// operation that allocates a few KiB does not read as zero.
func heapAllocated() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

// measurement collects the samples of an untraced run's measured loop.
// Host speed on a shared machine swings by a third for seconds at a time,
// so every reported value is a median: over the operations of a class,
// then (geometric mean) over classes, or over the loop's rounds.
type measurement struct {
	lat   samples   // ms per operation
	alloc samples   // MiB allocated per operation
	rates []float64 // work items per second, one per round
}

func newMeasurement() *measurement { return &measurement{lat: samples{}, alloc: samples{}} }

// op records one operation of class that took d and allocated bytes.
func (m *measurement) op(class string, d time.Duration, allocated uint64) {
	m.lat.add(class, ms(d))
	m.alloc.add(class, float64(allocated)/mib)
}

// round records the end of one round: items of work done in busy time.
func (m *measurement) round(items float64, busy time.Duration) {
	if busy > 0 {
		m.rates = append(m.rates, items/busy.Seconds())
	}
}

// metrics returns the end-to-end metrics every workload reports, and the
// informational values reported next to them but not gated: the 90th
// percentile latency (a tail follows the host's slow spells more closely
// than a regression bound allows) and the peak resident set (the maximum
// over a run follows its single heaviest input, and the memory held
// between rounds follows the garbage collector's pacing).
func (m *measurement) metrics(setups []time.Duration) (gated, info map[string]float64) {
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	gated = map[string]float64{
		"setup_s":          median(setupS),
		"latency_p50_ms":   m.lat.geoQuantile(0.5),
		"throughput_per_s": median(m.rates),
		"alloc_mb_per_op":  m.alloc.geoQuantile(0.5),
	}
	info = map[string]float64{
		"latency_p90_ms": m.lat.geoQuantile(0.9),
		"peak_rss_mb":    peakRSSMB(),
	}
	return gated, info
}
