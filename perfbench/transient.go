package main

// transient-warmup: a 25 W chip-only steady state, then the lasers,
// drivers and heaters switch on and the package heats up under implicit
// Euler. The measured loop runs whole rounds of roundSteps steps, each
// round a fresh run from the same steady state on the cached transient
// operator; one step is one operation of the end-to-end metrics.

import (
	"fmt"
	"math"
	"time"

	"vcselnoc/internal/core"
	"vcselnoc/internal/mg"
	"vcselnoc/internal/snr"
	"vcselnoc/internal/thermal"
)

const (
	transientDt = 1e-3 // s
	roundSteps  = 10
)

var (
	chipOnly = thermal.Powers{Chip: 25}
	allOn    = thermal.Powers{Chip: 25, VCSEL: 3.6e-3, Driver: 3.6e-3, Heater: 1.08e-3}
)

// warmup is one set-up of the workload: the model, the chip-only steady
// state, and a stepper that has taken its first step. The first step
// pays the shifted hierarchy's coarse factorisation, which the stepper
// builds lazily, so it belongs to set-up and not to the measured steps.
type warmup struct {
	m                *core.Methodology
	initial          *thermal.Result
	newModel, steady time.Duration
	stepper, total   time.Duration
	totalCPU         time.Duration
	obs              []thermal.TransientObservation
}

func (w *warmup) newRun() (*thermal.TransientRun, error) {
	w.obs = w.obs[:0]
	return w.m.Model().NewTransientRun(allOn, thermal.TransientSpec{
		TimeStep: transientDt,
		Steps:    roundSteps,
		Initial:  w.initial,
		Observer: func(o thermal.TransientObservation) { w.obs = append(w.obs, o) },
	})
}

func setupTransient(cfg config, spec thermal.Spec) (*warmup, error) {
	w := &warmup{}
	root := cfg.tr.begin("transient.setup", 0)
	defer cfg.tr.end(root)
	start, cpu0 := time.Now(), cpuTime()
	var err error
	if w.newModel, err = cfg.tr.timed("thermal.new_model", root, func() error {
		w.m, err = core.NewWithSpec(spec, snr.DefaultConfig())
		return err
	}); err != nil {
		return nil, err
	}
	if w.steady, err = cfg.tr.timed("thermal.steady_init", root, func() error {
		w.initial, err = w.m.Model().Solve(chipOnly)
		return err
	}); err != nil {
		return nil, err
	}
	if w.stepper, err = cfg.tr.timed("fvm.stepper_setup", root, func() error {
		run, err := w.newRun()
		if err != nil {
			return err
		}
		return run.Step()
	}); err != nil {
		return nil, err
	}
	w.total, w.totalCPU = time.Since(start), cpuTime()-cpu0
	return w, nil
}

func runTransientWarmup(cfg config) (*result, error) {
	spec, err := cfg.spec()
	if err != nil {
		return nil, err
	}
	res := &result{values: map[string]float64{}}
	var w *warmup
	var totals, totalsCPU []time.Duration
	var newModel, steady, stepper []float64
	for i := 0; i < setupRepeats; i++ {
		w = nil
		collect()
		if w, err = setupTransient(cfg, spec); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		totals = append(totals, w.total)
		totalsCPU = append(totalsCPU, w.totalCPU)
		newModel = append(newModel, w.newModel.Seconds())
		steady = append(steady, w.steady.Seconds())
		stepper = append(stepper, w.stepper.Seconds())
	}

	var steps, cpuSteps []time.Duration
	var cpu time.Duration
	var peaks [][]float64
	iters := 0
	phasesBefore := mg.ReadPhaseStats()
	start := time.Now()
	var run *thermal.TransientRun
	for len(peaks) == 0 || time.Since(start) < cfg.seconds {
		// Each round starts from a collected heap, outside the measured
		// time, as each fig3-cold flow does. Without it the rounds'
		// garbage piles up until the pacer's next collection, so the
		// peak RSS would grow with the number of rounds a run fits in.
		run = nil
		pause := time.Now()
		collect()
		start = start.Add(time.Since(pause))
		root := cfg.tr.begin("transient.round", 0)
		if _, err = cfg.tr.timed("fvm.new_run", root, func() error {
			run, err = w.newRun()
			return err
		}); err != nil {
			return res, err
		}
		res.attempted += roundSteps
		for k := 0; k < roundSteps; k++ {
			c0 := cpuTime()
			d, err := cfg.tr.timed("fvm.step", root, run.Step)
			if err != nil {
				res.failed += roundSteps - k
				return res, err
			}
			c := cpuTime() - c0
			steps = append(steps, d)
			cpuSteps = append(cpuSteps, c)
			cpu += c
		}
		cfg.tr.end(root)
		round := []float64{maxOf(w.initial.T)}
		for _, o := range w.obs {
			round = append(round, o.PeakTemp)
			iters += o.SolverIterations
		}
		peaks = append(peaks, round)
	}
	wall := time.Since(start)
	phases := mg.ReadPhaseStats().Sub(phasesBefore)
	opMetrics(res.values, len(steps), cpuSteps, cpu, steps, wall)
	res.values["setup_s"] = secondsMedian(totalsCPU)
	res.values["wall.setup_s"] = secondsMedian(totals)

	for _, p := range peaks {
		res.check(checkPeakMonotone(p))
	}
	final, err := run.Result()
	if err != nil {
		return res, err
	}
	allOnSteady, err := w.m.Model().Solve(allOn)
	if err != nil {
		return res, err
	}
	res.check(checkMaxPrinciple(w.initial.T, final.T, allOnSteady.T, 1e-6))

	if cfg.tr.on {
		v := res.values
		rounds := float64(len(peaks))
		v["thermal.new_model_s"] = median(newModel)
		v["thermal.steady_init_s"] = median(steady)
		v["fvm.stepper_setup_s"] = median(stepper)
		self, count := cfg.tr.selfTimes()
		v["fvm.step_ms"] = ms(self["fvm.step"]) / float64(count["fvm.step"])
		v["fvm.iters_per_step"] = float64(iters) / float64(len(steps))
		phaseMetrics(v, phases, rounds)
		// One right-hand side per step and one V-cycle goroutine, so the
		// step time outside the phase counters is the outer CG, the
		// right-hand side and the observer.
		v["sparse.outer_cg_s"] = (self["fvm.step"] - phases.Total()).Seconds() / rounds
		var obs []float64
		for i := 0; i < 20; i++ {
			d, _ := cfg.tr.timed("thermal.observe", 0, func() error {
				run.Observation()
				return nil
			})
			obs = append(obs, ms(d))
		}
		v["thermal.observe_ms"] = median(obs)
		if err := solverLayers(cfg, v, w.m.Model()); err != nil {
			return res, err
		}
	}
	return res, nil
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
