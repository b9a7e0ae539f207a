package main

import (
	"math"
	"testing"

	"vcselnoc/internal/ornoc"
	"vcselnoc/internal/snr"
)

// Each checker must accept a sound output and reject the corrupted copy.

func TestFieldCheckRejectsPerturbedField(t *testing.T) {
	want := []float64{40, 41.5, 55.25, 60}
	got := append([]float64(nil), want...)
	if err := checkFieldsMatch("clean", got, want, 1e-6); err != nil {
		t.Fatalf("clean field rejected: %v", err)
	}
	got[2] += 1e-5
	if checkFieldsMatch("perturbed", got, want, 1e-6) == nil {
		t.Fatal("a field perturbed by 1e-5 °C passed a 1e-6 °C check")
	}
	got[2] = math.NaN()
	if checkFieldsMatch("nan", got, want, 1e-6) == nil {
		t.Fatal("a NaN cell passed")
	}
}

// gradient is a V-shaped heater curve with its minimum at 0.3·P_VCSEL.
func gradient(ph, pv float64) float64 { return 0.2 + 10*math.Abs(ph-0.3*pv)/pv }

func heaterAt(ph, pv float64) heaterPoint {
	g := func(x float64) (float64, error) { return gradient(x, pv), nil }
	below, above, _ := heaterNeighbours(g, ph, pv)
	return heaterPoint{
		PVCSEL: pv, PHeater: ph, Ratio: ph / pv,
		Gradient: gradient(ph, pv), GradientNoHeat: gradient(0, pv),
		Below: below, Above: above,
	}
}

func TestHeaterCheckRejectsOffMinimumPoint(t *testing.T) {
	const pv = 4e-3
	if err := checkHeaterOptimum(heaterAt(0.3*pv, pv)); err != nil {
		t.Fatalf("true optimum rejected: %v", err)
	}
	// Still within the paper's 0.3 ± 0.1, but 5 % of P_VCSEL off the
	// minimum: the +2 % neighbour is better.
	if checkHeaterOptimum(heaterAt(0.25*pv, pv)) == nil {
		t.Fatal("an off-minimum heater point passed")
	}
	if checkHeaterMinimum(heaterAt(0.35*pv, pv)) == nil {
		t.Fatal("an off-minimum served heater answer passed")
	}
	if checkHeaterOptimum(heaterAt(0, pv)) == nil {
		t.Fatal("a heater optimum at 0 W passed")
	}
}

func TestPeakCheckRejectsNonMonotoneStep(t *testing.T) {
	peaks := []float64{70, 70.2, 70.35, 70.4}
	if err := checkPeakMonotone(peaks); err != nil {
		t.Fatalf("heating curve rejected: %v", err)
	}
	peaks[2] = 70.1
	if checkPeakMonotone(peaks) == nil {
		t.Fatal("a peak that fell between steps passed")
	}
}

func TestMaxPrincipleRejectsOvershoot(t *testing.T) {
	initial := []float64{50, 51}
	steady := []float64{60, 62}
	if err := checkMaxPrinciple(initial, []float64{55, 56}, steady, 1e-6); err != nil {
		t.Fatalf("field between the bounds rejected: %v", err)
	}
	if checkMaxPrinciple(initial, []float64{55, 62.01}, steady, 1e-6) == nil {
		t.Fatal("a cell above the steady state passed")
	}
	if checkMaxPrinciple(initial, []float64{49.9, 56}, steady, 1e-6) == nil {
		t.Fatal("a cooled cell passed")
	}
}

// snrReport builds a sound two-communication report on a 1 cm path.
func snrReport() *snr.Report {
	rep := &snr.Report{AllDetected: true}
	for i, x := range []float64{1e-7, 2e-7} {
		sig := 1e-4 * math.Pow(10, -0.05) * 0.9 // 0.5 dB over 1 cm, less 10 %
		rep.PerComm = append(rep.PerComm, snr.CommReport{
			Comm:        ornoc.Communication{Src: i, Dst: i + 1},
			SignalW:     sig,
			CrosstalkW:  x,
			SNRdB:       10 * math.Log10(sig/x),
			LaunchW:     1e-4,
			PathLengthM: 0.01,
			Detected:    true,
		})
	}
	rep.WorstSNRdB = rep.PerComm[1].SNRdB
	return rep
}

func TestSNRCheckRejectsSignalAbovePassivityBound(t *testing.T) {
	if err := checkSNRReport(snrReport()); err != nil {
		t.Fatalf("sound report rejected: %v", err)
	}
	rep := snrReport()
	c := &rep.PerComm[0]
	c.SignalW = c.LaunchW * math.Pow(10, -0.05) * 1.01 // 1 % above the 0.5 dB/cm bound
	c.SNRdB = 10 * math.Log10(c.SignalW/c.CrosstalkW)
	if checkSNRReport(rep) == nil {
		t.Fatal("a signal above the passivity bound passed")
	}
	rep = snrReport()
	rep.WorstSNRdB = rep.PerComm[0].SNRdB
	if checkSNRReport(rep) == nil {
		t.Fatal("a worst SNR that is not the minimum passed")
	}
}

func TestRingOrderAndServedChecks(t *testing.T) {
	if checkRingOrder("flat", [3]float64{20, 18, 18}) == nil {
		t.Fatal("a worst SNR that does not fall from 32 mm to 47 mm passed")
	}
	if checkFeasibleFlag(1.2, true) == nil || checkFeasibleFlag(0.8, false) == nil {
		t.Fatal("a feasible flag that contradicts max_gradient passed")
	}
	if checkMidpoint("mean_oni_temp", 50, 60, 55+1e-6) == nil {
		t.Fatal("a midpoint off by 1e-6 °C passed")
	}
}

func TestSweepChecksRejectCorruptedWindows(t *testing.T) {
	grid := [][]float64{{40, 41, 42, 43}, {45, 46, 47, 48}}
	if err := checkRisingGrid("clean", grid); err != nil {
		t.Fatalf("rising grid rejected: %v", err)
	}
	grid[1][2] = 46
	if checkRisingGrid("flat row", grid) == nil {
		t.Fatal("a row that stops rising passed")
	}
	grid[1][2], grid[1][0] = 47, 40
	if checkRisingGrid("flat column", grid) == nil {
		t.Fatal("a column that stops rising passed")
	}
	if err := checkWindow("clean", 3, 3, 3, 3); err != nil {
		t.Fatalf("the asked-for window rejected: %v", err)
	}
	if checkWindow("shifted", 2, 3, 3, 3) == nil || checkWindow("short", 3, 2, 3, 3) == nil {
		t.Fatal("a window other than the one asked for passed")
	}
	if checkEqual("off", 0.5, 0.5+1e-6) == nil {
		t.Fatal("a sweep cell off by 1e-6 °C passed")
	}
}
