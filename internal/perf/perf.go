// Package perf implements the paper's performance models (§3).
//
// A single processor's throughput is proportional to its effective
// clock, min(f, g(v)) (Eq. 1): frequency only helps until the supply
// voltage can no longer sustain it.
//
// The applications are serial–parallel–serial task graphs (Figure 2),
// so the n-processor speedup follows Amdahl's law: with total
// single-processor work Tt and non-parallelizable work Ts,
//
//	Perf(n)    = c0 / (Ts + (Tt − Ts)/n)             (Eq. 2)
//	Perf(n, f) = c1·min(f, g(v)) / (Ts + (Tt−Ts)/n)  (Eq. 3)
//
// This package also exposes the quantity nTs/(Tt−Ts) that decides,
// in §4.2, whether raising frequency or adding processors buys more
// performance per watt.
package perf

import (
	"fmt"
	"math"
)

// Workload describes one application run as the paper's Figure 2 task
// graph: a serial prologue/epilogue plus a perfectly parallel middle.
type Workload struct {
	// TotalTime is Tt: execution time of the whole task on one
	// processor at the reference frequency, in seconds.
	TotalTime float64
	// SerialTime is Ts: the part of TotalTime that cannot be
	// parallelized, in seconds. 0 <= SerialTime <= TotalTime.
	SerialTime float64
	// C1 is the proportionality constant of Eq. 3. A zero value
	// means 1.
	C1 float64
}

// NewWorkload validates and returns a workload. TotalTime must be
// positive and SerialTime within [0, TotalTime].
func NewWorkload(totalTime, serialTime float64) (Workload, error) {
	if totalTime <= 0 {
		return Workload{}, fmt.Errorf("perf: non-positive total time %g", totalTime)
	}
	if serialTime < 0 || serialTime > totalTime {
		return Workload{}, fmt.Errorf("perf: serial time %g outside [0, %g]", serialTime, totalTime)
	}
	return Workload{TotalTime: totalTime, SerialTime: serialTime, C1: 1}, nil
}

// ParallelTime returns Tt − Ts, the parallelizable work.
func (w Workload) ParallelTime() float64 { return w.TotalTime - w.SerialTime }

// SerialFraction returns Ts/Tt, the Amdahl serial fraction.
func (w Workload) SerialFraction() float64 { return w.SerialTime / w.TotalTime }

// c1 returns the proportionality constant, defaulting to 1.
func (w Workload) c1() float64 {
	if w.C1 == 0 {
		return 1
	}
	return w.C1
}

// EffectiveFrequency returns min(f, gOfV) per Eq. 1: the throughput-
// relevant clock given the requested frequency f and the maximum
// frequency g(v) the supply voltage sustains.
func EffectiveFrequency(f, gOfV float64) float64 {
	return math.Min(f, gOfV)
}

// Speedup returns the Amdahl speedup of n processors over one:
// Tt / (Ts + (Tt−Ts)/n).
func (w Workload) Speedup(n int) float64 {
	if n < 1 {
		panic(fmt.Sprintf("perf: speedup of %d processors", n))
	}
	return w.TotalTime / w.parallelDenominator(n)
}

// parallelDenominator returns Ts + (Tt − Ts)/n.
func (w Workload) parallelDenominator(n int) float64 {
	return w.SerialTime + w.ParallelTime()/float64(n)
}

// Performance returns Eq. 3's Perf(n, f) with the effective clock
// min(f, gOfV) in hertz. Larger is better; the unit is
// "reference-clock work per second" scaled by C1.
func (w Workload) Performance(n int, f, gOfV float64) float64 {
	if n < 1 {
		panic(fmt.Sprintf("perf: performance of %d processors", n))
	}
	return w.c1() * EffectiveFrequency(f, gOfV) / w.parallelDenominator(n)
}

// PerformanceAtNominal is Performance with no voltage cap (g(v) = +inf),
// matching Eq. 2 scaled by frequency.
func (w Workload) PerformanceAtNominal(n int, f float64) float64 {
	return w.Performance(n, f, math.Inf(1))
}

// ExecutionTime returns the wall-clock time for one task instance on
// n processors at frequency f, relative to the reference frequency
// fRef at which TotalTime/SerialTime were measured:
//
//	time = (Ts + (Tt − Ts)/n) · fRef/f
//
// The paper's 2K-sample FFT measures 4.8 s at 20 MHz; this method
// reproduces e.g. 1.2 s at 80 MHz for the same serial profile.
func (w Workload) ExecutionTime(n int, f, fRef float64) float64 {
	if n < 1 {
		panic(fmt.Sprintf("perf: execution time on %d processors", n))
	}
	if f <= 0 || fRef <= 0 {
		panic(fmt.Sprintf("perf: non-positive frequency %g/%g", f, fRef))
	}
	return w.parallelDenominator(n) * fRef / f
}

// ScalingRatio returns nTs/(Tt − Ts), the quantity the paper's §4.2
// derivations compare against thresholds to decide whether frequency
// or processor count is the better lever:
//
//   - f <  g(vmin) (Case 1): the ratio is positive, so Eq. 14's
//     quotient exceeds 1 and frequency always wins.
//   - f >= g(vmin) (Case 2): Eq. 17 prefers frequency when the ratio
//     exceeds 2 and more processors otherwise.
//
// It returns +Inf for a fully serial workload (Tt == Ts), where more
// processors can never help.
func (w Workload) ScalingRatio(n int) float64 {
	if n < 1 {
		panic(fmt.Sprintf("perf: scaling ratio of %d processors", n))
	}
	par := w.ParallelTime()
	if par == 0 {
		return math.Inf(1)
	}
	return float64(n) * w.SerialTime / par
}

// PreferFrequency reports whether, at the operating point (n,
// f >= g(vmin)), raising frequency yields more performance per watt
// than adding a processor — the Eq. 17 test nTs/(Tt−Ts) > 2.
func (w Workload) PreferFrequency(n int) bool {
	return w.ScalingRatio(n) > 2
}

// OptimalProcessors returns the paper's Eq. 18 crossover count
// 2(Tt/Ts − 1): beyond this, adding processors is no longer the
// better lever. It returns maxN for a fully parallel workload
// (Ts == 0) and 1 for a fully serial one, both clamped to [1, maxN].
func (w Workload) OptimalProcessors(maxN int) int {
	if maxN < 1 {
		panic(fmt.Sprintf("perf: maxN %d", maxN))
	}
	if w.SerialTime == 0 {
		return maxN
	}
	n := int(math.Floor(2 * (w.TotalTime/w.SerialTime - 1)))
	if n < 1 {
		n = 1
	}
	if n > maxN {
		n = maxN
	}
	return n
}

// MarginalPerfPerPowerFreq returns ∂Perf/∂Power when power is spent
// on frequency at constant n, in the sub-vmin regime (Eq. 12, with
// the constant c2·v² factored out): c1/(nTs + Tt − Ts). Exposed so
// tests and ablation benches can validate the §4.2 derivation
// numerically.
func (w Workload) MarginalPerfPerPowerFreq(n int) float64 {
	return w.c1() / w.marginalDenominator(n)
}

// MarginalPerfPerPowerProc returns ∂Perf/∂Power when power is spent
// on processors at constant f, in the sub-vmin regime (Eq. 13, same
// normalization): c1(Tt−Ts)/(nTs + Tt − Ts)².
//
// The ratio Freq/Proc equals nTs/(Tt−Ts) + 1 (Eq. 14), which exceeds
// one whenever any serial work exists — the paper's Case 1 result
// that frequency always beats processor count below g(vmin).
//
// It is computed as Freq · (Tt−Ts)/(nTs + Tt − Ts) so that rounding
// preserves that inequality: the factor is exactly 1 when Ts == 0 and
// never above 1 otherwise, so Freq/Proc >= 1 holds in floating point
// too.
func (w Workload) MarginalPerfPerPowerProc(n int) float64 {
	return w.MarginalPerfPerPowerFreq(n) * (w.ParallelTime() / w.marginalDenominator(n))
}

// marginalDenominator returns nTs + Tt − Ts, summed directly so it is
// exactly Tt − Ts when Ts == 0.
func (w Workload) marginalDenominator(n int) float64 {
	return float64(n)*w.SerialTime + w.ParallelTime()
}
