package main

// fig3-cold: the paper's Fig. 3 flow from a fresh model, repeated for the
// run's length. One flow is one operation of the end-to-end metrics; its
// layer calls are the operations counted as attempted.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"vcselnoc/internal/activity"
	"vcselnoc/internal/core"
	"vcselnoc/internal/dse"
	"vcselnoc/internal/fvm"
	"vcselnoc/internal/mg"
	"vcselnoc/internal/ornoc"
	"vcselnoc/internal/snr"
	"vcselnoc/internal/sparse"
	"vcselnoc/internal/thermal"
)

// The paper's operating points: the heater optimum at 25 W and 4 mW, the
// Fig. 10 comparison at a 0.3 heater ratio, and the Fig. 12 SNR study at
// 24 W, 3.6 mW and 1.08 mW.
const (
	heaterChipW   = 25
	heaterPVCSELW = 4e-3
	snrChipW      = 24
	snrPVCSELW    = 3.6e-3
	snrPHeaterW   = 1.08e-3
)

var (
	fig10Lasers = []float64{1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3}
	snrCases    = [3]ornoc.CaseStudy{ornoc.Case18mm, ornoc.Case32mm, ornoc.Case47mm}
	patterns    = [2]core.CommPattern{core.Neighbour, core.Paired}
	activities  = [2]activity.Scenario{activity.Uniform{}, activity.Diagonal{}}
)

// flowOps is the number of layer calls in one flow: model, two bases,
// heater optimum, comparison and 3 × 2 × 2 SNR analyses.
const flowOps = 5 + len(snrCases)*len(patterns)*len(activities)

// coarseBudget is mg's default direct coarse-factor budget in stored
// entries, used to refactor the coarsest level apart from the flow.
const coarseBudget = 8 << 20

// flow is what one cold flow produced and what its layers cost.
type flow struct {
	m           *core.Methodology
	setup, cold time.Duration // model assembly; first (cold) basis
	setupCPU    time.Duration // CPU time of the two
	iters       [2]int        // block-CG iterations of the cold and warm bases
	phases      mg.PhaseStats
	opt         dse.HeaterOptimum
	reports     [2][2][3]*core.SNRResult // activity, pattern, case
}

// runFlow runs one cold flow under the span root and returns how many of
// its layer calls succeeded.
func runFlow(cfg config, spec thermal.Spec, root int) (*flow, int, error) {
	tr := cfg.tr
	f := &flow{}
	done := 0
	var err error
	cpu0 := cpuTime()
	f.setup, err = tr.timed("thermal.new_model", root, func() error {
		f.m, err = core.NewWithSpec(spec, snr.DefaultConfig())
		return err
	})
	if err != nil {
		return nil, done, err
	}
	done++
	var b *thermal.Basis
	f.cold, err = tr.timed("thermal.basis_cold", root, func() error {
		b, err = f.m.BasisFor(activity.Uniform{})
		return err
	})
	if err != nil {
		return nil, done, err
	}
	done++
	f.setupCPU = cpuTime() - cpu0
	f.iters[0] = b.BuildStats().Iterations
	_, err = tr.timed("thermal.basis_warm", root, func() error {
		b, err = f.m.BasisFor(activity.Diagonal{})
		return err
	})
	if err != nil {
		return nil, done, err
	}
	done++
	f.iters[1] = b.BuildStats().Iterations
	f.phases = f.m.Model().System().PhaseStats()
	if _, err = tr.timed("dse.heater_opt", root, func() error {
		f.opt, err = f.m.OptimalHeaterRatio(nil, heaterChipW, heaterPVCSELW)
		return err
	}); err != nil {
		return nil, done, err
	}
	done++
	if _, err = tr.timed("dse.comparison", root, func() error {
		ex, err := f.m.Explorer(nil)
		if err != nil {
			return err
		}
		_, err = ex.HeaterComparison(heaterChipW, fig10Lasers, 0.3)
		return err
	}); err != nil {
		return nil, done, err
	}
	done++
	for ai, act := range activities {
		for pi, pat := range patterns {
			for ci, cs := range snrCases {
				if _, err = tr.timed("snr.analysis", root, func() error {
					f.reports[ai][pi][ci], err = f.m.SNRAnalysis(core.SNRScenario{
						Case: cs, Activity: act, Pattern: pat,
						ChipPower: snrChipW, PVCSEL: snrPVCSELW, PHeater: snrPHeaterW,
					})
					return err
				}); err != nil {
					return nil, done, err
				}
				done++
			}
		}
	}
	return f, done, nil
}

func runFig3Cold(cfg config) (*result, error) {
	spec, err := cfg.spec()
	if err != nil {
		return nil, err
	}
	res := &result{values: map[string]float64{}}
	// Only the last flow is kept, for the checks: holding on to earlier
	// ones would keep their models alive and grow the heap with the run.
	var last *flow
	var phases mg.PhaseStats
	var ops, cpuOps, setups, setupsCPU []time.Duration
	var cpu time.Duration
	start := time.Now()
	for len(ops) == 0 || time.Since(start) < cfg.seconds {
		// Each flow starts from a collected heap without the flow before,
		// so no flow pays for the garbage of the one before and the peak
		// RSS is one flow's.
		last = nil
		pause := time.Now()
		collect()
		start = start.Add(time.Since(pause))
		root := cfg.tr.begin("fig3.flow", 0)
		t0, c0 := time.Now(), cpuTime()
		f, done, err := runFlow(cfg, spec, root)
		d, c := time.Since(t0), cpuTime()-c0
		cfg.tr.end(root)
		res.attempted += flowOps
		if err != nil {
			res.failed += flowOps - done
			return res, fmt.Errorf("flow %d: %w", len(ops)+1, err)
		}
		last = f
		phases.Smooth += f.phases.Smooth
		phases.Restrict += f.phases.Restrict
		phases.Prolong += f.phases.Prolong
		phases.Coarse += f.phases.Coarse
		ops = append(ops, d)
		cpuOps = append(cpuOps, c)
		cpu += c
		setups = append(setups, f.setup+f.cold)
		setupsCPU = append(setupsCPU, f.setupCPU)
	}
	wall := time.Since(start)
	opMetrics(res.values, len(ops), cpuOps, cpu, ops, wall)
	res.values["setup_s"] = secondsMedian(setupsCPU)
	res.values["wall.setup_s"] = secondsMedian(setups)

	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x5eed))
	if err := checkFig3(res, last, spec, rng); err != nil {
		return res, err
	}
	if cfg.tr.on {
		if err := fig3Layers(cfg, res, last, phases, len(ops), rng); err != nil {
			return res, err
		}
	}
	return res, nil
}

// randomPowers draws an operating point in the ranges the paper studies:
// 12–31 W of chip power, 1–6 mW per VCSEL and driver, heater power up to
// P_VCSEL.
func randomPowers(rng *rand.Rand, act activity.Scenario) thermal.Powers {
	pv := 1e-3 + 5e-3*rng.Float64()
	return thermal.Powers{Chip: 12 + 19*rng.Float64(), Activity: act, VCSEL: pv, Driver: pv, Heater: pv * rng.Float64()}
}

// checkFig3 runs the flow's correctness checks on its last flow.
func checkFig3(res *result, f *flow, spec thermal.Spec, rng *rand.Rand) error {
	model := f.m.Model()
	sys := model.System()
	opts := fvm.SolveOptions{Tolerance: 1e-8, Solver: spec.Solver, Workers: spec.Workers}
	var uniform *thermal.Basis
	for _, act := range activities {
		b, err := f.m.BasisFor(act)
		if err != nil {
			return err
		}
		if uniform == nil {
			uniform = b
		}
		for k := 0; k < 2; k++ {
			p := randomPowers(rng, act)
			ev, err := b.Evaluate(p)
			if err != nil {
				return err
			}
			power, err := model.PowerVector(p)
			if err != nil {
				return err
			}
			sol, err := sys.SolveSteady(power, opts)
			if err != nil {
				return err
			}
			res.check(checkFieldsMatch(fmt.Sprintf("%s basis vs direct solve at %+v", act.Name(), p), ev.T, sol.T, 1e-6))
			res.check(checkEnergyBalance(sol.EnergyBalanceError()))
		}
		lo, err := b.Evaluate(thermal.Powers{Chip: 12, VCSEL: snrPVCSELW, Driver: snrPVCSELW, Heater: snrPHeaterW})
		if err != nil {
			return err
		}
		hi, err := b.Evaluate(thermal.Powers{Chip: 31, VCSEL: snrPVCSELW, Driver: snrPVCSELW, Heater: snrPHeaterW})
		if err != nil {
			return err
		}
		res.check(checkONIsHeat(spec.Ambient, oniTemps(lo), oniTemps(hi)))
	}

	h := heaterPoint{
		PVCSEL: f.opt.PVCSEL, PHeater: f.opt.PHeater, Ratio: f.opt.Ratio,
		Gradient: f.opt.MeanGradient, GradientNoHeat: f.opt.GradientNoHeater,
	}
	var err error
	h.Below, h.Above, err = heaterNeighbours(func(ph float64) (float64, error) {
		r, err := uniform.Evaluate(thermal.Powers{Chip: heaterChipW, VCSEL: f.opt.PVCSEL, Driver: f.opt.PVCSEL, Heater: ph})
		if err != nil {
			return 0, err
		}
		return r.MeanONIGradient(), nil
	}, f.opt.PHeater, f.opt.PVCSEL)
	if err != nil {
		return err
	}
	res.check(checkHeaterOptimum(h))

	for ai, act := range activities {
		for pi, pat := range patterns {
			var worst [3]float64
			for ci := range snrCases {
				r := f.reports[ai][pi][ci]
				res.check(checkSNRReport(r.Report))
				worst[ci] = r.Report.WorstSNRdB
			}
			res.check(checkRingOrder(fmt.Sprintf("%s/%s", act.Name(), pat), worst))
		}
	}
	return nil
}

// heaterNeighbours evaluates the gradient at ±2 % of P_VCSEL around a
// heater power, NaN where the neighbour leaves [0, P_VCSEL].
func heaterNeighbours(grad func(ph float64) (float64, error), ph, pv float64) (below, above float64, err error) {
	below, above = math.NaN(), math.NaN()
	if lo := ph - 0.02*pv; lo >= 0 {
		if below, err = grad(lo); err != nil {
			return
		}
	}
	if hi := ph + 0.02*pv; hi <= pv {
		above, err = grad(hi)
	}
	return
}

func oniTemps(r *thermal.Result) []float64 {
	out := make([]float64, len(r.ONIs))
	for i, o := range r.ONIs {
		out[i] = o.AvgTemp
	}
	return out
}

// fig3Layers fills the per-layer metrics of a traced run: per-flow span
// self times, the hierarchies' phase counters summed over the run's
// flows, and the layers measured apart from the flows.
func fig3Layers(cfg config, res *result, last *flow, ph mg.PhaseStats, flows int, rng *rand.Rand) error {
	self, _ := cfg.tr.selfTimes()
	n := float64(flows)
	perFlow := func(name string) float64 { return self[name].Seconds() / n }
	v := res.values
	v["thermal.new_model_s"] = perFlow("thermal.new_model")
	v["thermal.basis_cold_s"] = perFlow("thermal.basis_cold")
	v["thermal.basis_warm_s"] = perFlow("thermal.basis_warm")
	v["dse.heater_opt_s"] = perFlow("dse.heater_opt")
	v["dse.comparison_s"] = perFlow("dse.comparison")
	v["snr.analysis_s"] = perFlow("snr.analysis")
	v["thermal.basis_iters"] = float64(last.iters[0])
	phaseMetrics(v, ph, n)
	outer, err := outerBlockCG(cfg, last.m.Model(), last.iters[:]...)
	if err != nil {
		return err
	}
	v["sparse.outer_cg_s"] = outer
	for ci := range snrCases {
		comms := 0
		for pi := range patterns {
			comms += len(last.reports[0][pi][ci].Report.PerComm)
		}
		v[[3]string{"snr.comms_18mm", "snr.comms_32mm", "snr.comms_47mm"}[ci]] = float64(comms)
	}
	cells := last.m.Model().NumCells()
	v["thermal.basis_mb"] = 4 * float64(cells) * 8 / 1e6

	if err := solverLayers(cfg, v, last.m.Model()); err != nil {
		return err
	}
	b, err := last.m.BasisFor(activity.Uniform{})
	if err != nil {
		return err
	}
	var evals []float64
	for i := 0; i < 20; i++ {
		p := randomPowers(rng, nil)
		d, err := cfg.tr.timed("thermal.evaluate", 0, func() error {
			_, err := b.Evaluate(p)
			return err
		})
		if err != nil {
			return err
		}
		evals = append(evals, ms(d))
	}
	v["thermal.evaluate_ms"] = median(evals)
	return nil
}

// phaseMetrics reports mg's V-cycle phase counters per round. Under a
// basis build the four columns' V-cycles run concurrently, so these are
// summed over goroutines and may exceed the wall time.
func phaseMetrics(v map[string]float64, ph mg.PhaseStats, rounds float64) {
	v["mg.smooth_s"] = ph.Smooth.Seconds() / rounds
	v["mg.restrict_s"] = ph.Restrict.Seconds() / rounds
	v["mg.prolong_s"] = ph.Prolong.Seconds() / rounds
	v["mg.coarse_s"] = ph.Coarse.Seconds() / rounds
}

// outerBlockCG times, apart from the workload, the outer block CG of the
// given basis builds without their V-cycles: for each build, the four
// unit-power right-hand sides on the model's operator, for that build's
// iteration count, with an identity preconditioner. It returns the sum.
// Concurrent V-cycles rule out taking it as a build's wall time minus the
// phase counters.
func outerBlockCG(cfg config, model *thermal.Model, builds ...int) (float64, error) {
	var bs, xs [][]float64
	for _, p := range []thermal.Powers{{Chip: 1}, {VCSEL: 1e-3}, {Driver: 1e-3}, {Heater: 1e-3}} {
		b, err := model.PowerVector(p)
		if err != nil {
			return 0, err
		}
		bs = append(bs, b)
		xs = append(xs, make([]float64, len(b)))
	}
	identity := func(z, r []float64) { copy(z, r) }
	total := 0.0
	for _, iters := range builds {
		for _, x := range xs {
			clear(x)
		}
		var res []sparse.Result
		d, err := cfg.tr.timed("sparse.outer_cg", 0, func() error {
			var err error
			res, err = sparse.BlockCG(model.System().Matrix(), bs, xs, []func(z, r []float64){identity}, 1e-8, iters, cfg.workers)
			return err
		})
		// Without the V-cycle the iteration stops unconverged at iters;
		// only a missing result is a failure.
		if len(res) != len(bs) || res[0].Iterations != iters {
			return 0, fmt.Errorf("outer block CG: %d results after %d iterations: %v", len(res), iters, err)
		}
		total += d.Seconds()
	}
	return total, nil
}

// solverLayers times, apart from the workload, the steady hierarchy
// build and the coarsest-level factorisation under its nested-dissection
// ordering, and reports the factor's size in computed bytes.
func solverLayers(cfg config, v map[string]float64, model *thermal.Model) error {
	sys := model.System()
	g := model.Grid()
	var h *mg.Hierarchy
	d, err := cfg.tr.timed("mg.hierarchy", 0, func() error {
		var err error
		h, err = mg.BuildHierarchy(sys.Matrix(), sparse.GridHint{X: g.X, Y: g.Y, Z: g.Z}, mg.Options{})
		return err
	})
	if err != nil {
		return err
	}
	v["mg.hierarchy_s"] = d.Seconds()
	a := h.CoarseOperator()
	d, err = cfg.tr.timed("mg.coarse_factor", 0, func() error {
		_, err := sparse.NewSparseCholesky(a, h.CoarseOrdering(), coarseBudget)
		return err
	})
	if err != nil {
		return err
	}
	v["mg.coarse_factor_s"] = d.Seconds()
	entries, err := sparse.SparseCholeskyCount(a, h.CoarseOrdering(), coarseBudget)
	if err != nil {
		return err
	}
	v["mg.factor_mb"] = float64(entries) * 8 / 1e6
	return nil
}
