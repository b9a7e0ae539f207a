package main

// Correctness checks. Each one tests a property of the method or
// compares against a value computed apart from the code under test;
// none compares against stored output. They run outside the timed
// regions.

import (
	"fmt"
	"math"

	"vcselnoc/internal/snr"
)

// checkFieldsMatch compares two temperature fields cell by cell, as a
// superposition evaluation against a direct solve of the same point.
func checkFieldsMatch(what string, got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d cells, want %d", what, len(got), len(want))
	}
	worst, at := 0.0, 0
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > worst || math.IsNaN(d) {
			worst, at = d, i
			if math.IsNaN(d) {
				break
			}
		}
	}
	if !(worst <= tol) {
		return fmt.Errorf("%s: cell %d differs by %g °C (tolerance %g)", what, at, worst, tol)
	}
	return nil
}

// checkEnergyBalance requires the injected power to leave through the
// boundaries of a converged steady solve.
func checkEnergyBalance(relErr float64) error {
	if !(relErr <= 1e-8) {
		return fmt.Errorf("energy balance error %g exceeds 1e-8", relErr)
	}
	return nil
}

// checkONIsHeat requires every ONI to sit above ambient at the lower
// chip power and to be strictly hotter at the higher one.
func checkONIsHeat(ambient float64, lo, hi []float64) error {
	if len(lo) != len(hi) || len(lo) == 0 {
		return fmt.Errorf("ONI temperatures: %d vs %d ONIs", len(lo), len(hi))
	}
	for i := range lo {
		if !(lo[i] > ambient) {
			return fmt.Errorf("ONI %d at %g °C is not above ambient %g °C", i, lo[i], ambient)
		}
		if !(hi[i] > lo[i]) {
			return fmt.Errorf("ONI %d: %g °C at the higher chip power is not above %g °C", i, hi[i], lo[i])
		}
	}
	return nil
}

// heaterPoint is a heater optimum together with the gradients the check
// evaluates around it (NaN where a neighbour lies outside [0, bound]).
type heaterPoint struct {
	PVCSEL, PHeater, Ratio   float64
	Gradient, GradientNoHeat float64
	Below, Above             float64 // gradient at PHeater ∓ 2 % of PVCSEL
}

// heaterTol absorbs the rounding between two evaluations of the same
// operating point along different code paths.
const heaterTol = 1e-9

// checkHeaterMinimum requires the optimum to be no worse than the heater
// switched off and than its neighbours at ±2 % of P_VCSEL.
func checkHeaterMinimum(h heaterPoint) error {
	if !(h.Gradient <= h.GradientNoHeat+heaterTol) {
		return fmt.Errorf("heater optimum %g °C is worse than the heater off (%g °C)", h.Gradient, h.GradientNoHeat)
	}
	for _, n := range []struct {
		name string
		g    float64
	}{{"-2 %", h.Below}, {"+2 %", h.Above}} {
		if !math.IsNaN(n.g) && !(h.Gradient <= n.g+heaterTol) {
			return fmt.Errorf("heater optimum %g °C at %g W is worse than its %s neighbour (%g °C)",
				h.Gradient, h.PHeater, n.name, n.g)
		}
	}
	return nil
}

// checkHeaterOptimum adds the paper's claims to checkHeaterMinimum: the
// optimum lies in (0, P_VCSEL], strictly lowers the gradient, and sits at
// a ratio within 0.3 ± 0.1.
func checkHeaterOptimum(h heaterPoint) error {
	if !(h.PHeater > 0 && h.PHeater <= h.PVCSEL) {
		return fmt.Errorf("heater optimum %g W outside (0, %g]", h.PHeater, h.PVCSEL)
	}
	if !(h.Gradient < h.GradientNoHeat) {
		return fmt.Errorf("heater optimum %g °C is not below the heater-off gradient %g °C", h.Gradient, h.GradientNoHeat)
	}
	if !(math.Abs(h.Ratio-0.3) <= 0.1) {
		return fmt.Errorf("heater ratio %g outside the paper's 0.3 ± 0.1", h.Ratio)
	}
	return checkHeaterMinimum(h)
}

// checkSNRReport recomputes each communication's SNR from its signal and
// crosstalk, the worst SNR as their minimum, bounds each received signal
// by the launched one after the paper's 0.5 dB/cm propagation loss, and
// requires every signal to be detected.
func checkSNRReport(rep *snr.Report) error {
	if len(rep.PerComm) == 0 {
		return fmt.Errorf("SNR report has no communications")
	}
	worst := math.Inf(1)
	for i, c := range rep.PerComm {
		want := 10 * math.Log10(c.SignalW/c.CrosstalkW)
		if !(c.SNRdB == want || math.Abs(c.SNRdB-want) <= 1e-9*math.Max(1, math.Abs(want))) {
			return fmt.Errorf("comm %d: SNR %g dB, recomputed %g dB", i, c.SNRdB, want)
		}
		bound := c.LaunchW * math.Pow(10, -0.05*c.PathLengthM*100)
		if !(c.SignalW <= bound*(1+1e-12)) {
			return fmt.Errorf("comm %d: received %g W exceeds the passive bound %g W", i, c.SignalW, bound)
		}
		if !c.Detected {
			return fmt.Errorf("comm %d: signal %g W not detected", i, c.SignalW)
		}
		worst = math.Min(worst, c.SNRdB)
	}
	if rep.WorstSNRdB != worst {
		return fmt.Errorf("worst SNR %g dB, minimum over communications %g dB", rep.WorstSNRdB, worst)
	}
	if !rep.AllDetected {
		return fmt.Errorf("report says not every signal is detected")
	}
	return nil
}

// checkRingOrder requires the worst SNR to fall from the 18 mm to the
// 32 mm to the 47 mm ring (the paper's Fig. 12).
func checkRingOrder(what string, worst [3]float64) error {
	if !(worst[0] > worst[1] && worst[1] > worst[2]) {
		return fmt.Errorf("%s: worst SNR %v dB does not fall from the 18 mm to the 47 mm ring", what, worst)
	}
	return nil
}

// checkPeakMonotone requires the peak temperature never to decrease from
// one step to the next while the chip heats up.
func checkPeakMonotone(peaks []float64) error {
	for i := 1; i < len(peaks); i++ {
		if !(peaks[i] >= peaks[i-1]) {
			return fmt.Errorf("peak temperature fell from %g to %g °C at step %d", peaks[i-1], peaks[i], i+1)
		}
	}
	return nil
}

// checkMaxPrinciple requires every cell of the final field to lie
// between the initial field and the all-on steady state (the discrete
// maximum principle for heating from a steady state).
func checkMaxPrinciple(initial, final, steady []float64, tol float64) error {
	if len(initial) != len(final) || len(final) != len(steady) {
		return fmt.Errorf("field sizes %d, %d, %d differ", len(initial), len(final), len(steady))
	}
	for i := range final {
		if !(final[i] >= initial[i]-tol) {
			return fmt.Errorf("cell %d cooled from %g to %g °C", i, initial[i], final[i])
		}
		if !(final[i] <= steady[i]+tol) {
			return fmt.Errorf("cell %d at %g °C overshoots the steady state %g °C", i, final[i], steady[i])
		}
	}
	return nil
}

// checkFeasibleFlag requires feasible to mean max_gradient ≤ 1 °C.
func checkFeasibleFlag(maxGradient float64, feasible bool) error {
	if feasible != (maxGradient <= 1) {
		return fmt.Errorf("feasible=%v at max gradient %g °C", feasible, maxGradient)
	}
	return nil
}

// checkMidpoint requires a linear quantity at the midpoint of two
// operating points to equal the mean of its two values.
func checkMidpoint(what string, a, b, mid float64) error {
	if !(math.Abs(mid-(a+b)/2) <= 1e-9) {
		return fmt.Errorf("%s: %g at the midpoint, mean of the ends %g", what, mid, (a+b)/2)
	}
	return nil
}

// checkEqual requires two evaluations of the same operating point along
// different code paths to agree within rounding.
func checkEqual(what string, got, want float64) error {
	if !(math.Abs(got-want) <= heaterTol) {
		return fmt.Errorf("%s: %g, served gradient query %g", what, got, want)
	}
	return nil
}

// checkWindow requires a sweep response to hold the row window asked for.
func checkWindow(what string, start, rows, wantStart, wantRows int) error {
	if start != wantStart || rows != wantRows {
		return fmt.Errorf("%s: rows [%d,%d), want [%d,%d)", what, start, start+rows, wantStart, wantStart+wantRows)
	}
	return nil
}

// checkRisingGrid requires a temperature grid whose rows and columns both
// run over rising powers to rise strictly along each: more dissipated
// power heats every ONI.
func checkRisingGrid(what string, t [][]float64) error {
	for i := range t {
		for j := range t[i] {
			if j > 0 && !(t[i][j] > t[i][j-1]) {
				return fmt.Errorf("%s: row %d does not rise at column %d (%g after %g °C)", what, i, j, t[i][j], t[i][j-1])
			}
			if i > 0 && j < len(t[i-1]) && !(t[i][j] > t[i-1][j]) {
				return fmt.Errorf("%s: column %d does not rise at row %d (%g after %g °C)", what, j, i, t[i][j], t[i-1][j])
			}
		}
	}
	return nil
}
