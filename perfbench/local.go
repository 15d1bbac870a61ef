package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"time"

	"dpbyz/internal/attack"
	"dpbyz/internal/data"
	"dpbyz/internal/dp"
	"dpbyz/internal/gar"
	"dpbyz/internal/model"
	"dpbyz/internal/randx"
	"dpbyz/internal/simulate"
	"dpbyz/internal/spec"
)

// splitSalt derives the train/test split stream from the workload seed.
const splitSalt = 0x7065726662656e63 // "perfbenc"

// localShape is a simulator workload: synthetic-phishing data, the
// logistic-MSE model, the paper's worker pipeline (momentum, clip, Gaussian
// noise) and an omniscient attacker.
type localShape struct {
	points, features, trainN int
	gar                      string
	n, f                     int
	batch                    int
	steps, warmup            int
	period                   int // rounds per reported op
	accEvery                 int
	runs                     int  // runs per repetition, each on its own seed
	fleet                    bool // the traced repetition also runs the specs through a fleet
}

func (sh localShape) spec(seed uint64) spec.Spec {
	return spec.Spec{
		Name:           "perfbench",
		Data:           spec.DataSpec{N: sh.points, Features: sh.features, TrainN: sh.trainN},
		Model:          spec.ModelSpec{Name: "logistic-mse"},
		GAR:            spec.GARSpec{Name: sh.gar, N: sh.n, F: sh.f},
		Attack:         &spec.AttackSpec{Name: "alie"},
		Mechanism:      &spec.MechanismSpec{Name: "gaussian", Epsilon: 0.2, Delta: 1e-6},
		Steps:          sh.steps,
		BatchSize:      sh.batch,
		LearningRate:   2,
		WorkerMomentum: 0.99,
		ClipNorm:       1e-2,
		Seed:           seed,
		AccuracyEvery:  sh.accEvery,
	}
}

// fig2Shape is the paper's Fig. 2 alie+dp cell at paper scale.
func fig2Shape(tiny bool) localShape {
	if tiny {
		return localShape{points: 600, features: 10, trainN: 450, gar: "mda", n: 11, f: 5,
			batch: 50, steps: 60, warmup: 2, period: 2, accEvery: 10, runs: 2, fleet: true}
	}
	return localShape{points: data.PhishingSize, features: data.PhishingFeatures,
		trainN: data.PhishingTrainSize, gar: "mda", n: 11, f: 5,
		batch: 50, steps: 1000, warmup: 50, period: 50, accEvery: 50, runs: 8, fleet: true}
}

// krumShape is Krum at n=256 with the Fig. 3 batch and d=501.
func krumShape(tiny bool) localShape {
	if tiny {
		return localShape{points: 600, features: 20, trainN: 450, gar: "krum", n: 32, f: 8,
			batch: 10, steps: 40, warmup: 2, period: 1, runs: 1}
	}
	return localShape{points: data.PhishingSize, features: 500,
		trainN: data.PhishingTrainSize, gar: "krum", n: 256, f: 64,
		batch: 10, steps: 100, warmup: 5, period: 1, runs: 1}
}

// phishing generates the workload's dataset and split from the seed.
func phishing(points, features, trainN int, seed uint64) (full, train, test *data.Dataset, err error) {
	full, err = data.SyntheticPhishing(data.SyntheticPhishingConfig{N: points, Features: features, Seed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	train, test, err = full.Split(trainN, randx.New(seed^splitSalt))
	return full, train, test, err
}

// untracedRun is one untraced run through a spec.Backend.
type untracedRun struct {
	st        *stamps
	params    []float64
	finalLoss float64
	setupS    float64
	genMs     float64
	firstMs   float64
}

// newUntracedRun splits the run's set-up: input generation, then the
// backend to the end of the first round, less one median round.
func newUntracedRun(st *stamps, params []float64, finalLoss float64) *untracedRun {
	gen := float64(st.inputsDone-st.inputs) / 1e6
	first := float64(st.end[0]-st.inputsDone)/1e6 - st.medianRoundMs()
	return &untracedRun{
		st: st, params: params, finalLoss: finalLoss,
		setupS: (gen + first) / 1e3, genMs: gen, firstMs: first,
	}
}

func runLocalUntraced(sh localShape, seed uint64) (*untracedRun, error) {
	sp := sh.spec(seed)
	st := newStamps(sh.steps, sh.warmup, sh.period, time.Now(), nil)
	st.inputs = st.now()
	full, train, test, err := phishing(sh.points, sh.features, sh.trainN, seed)
	if err != nil {
		return nil, err
	}
	st.inputsDone = st.now()
	st.begin()
	res, err := (&spec.LocalBackend{}).Run(context.Background(), sp,
		spec.WithDatasets(train, test), spec.WithObserver(st))
	if err != nil {
		return nil, err
	}
	m, err := model.NewLogisticMSE(sh.features)
	if err != nil {
		return nil, err
	}
	return newUntracedRun(st, res.Params, model.DatasetLoss(m, res.Params, full)), nil
}

// runLocalTraced drives simulate.Run with decorated components, built the
// way spec.LocalBackend materializes the same Spec.
func runLocalTraced(sh localShape, seed uint64) (*Recorder, *stamps, []float64, error) {
	sp := sh.spec(seed)
	_, train, test, err := phishing(sh.points, sh.features, sh.trainN, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	rec := NewRecorder()
	lane := rec.NewLane("simulate")
	m, err := model.NewLogisticMSE(train.Dim())
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := gar.New(sp.GAR.Name, sp.GAR.N, sp.GAR.F)
	if err != nil {
		return nil, nil, nil, err
	}
	a, err := attack.New(sp.Attack.Name)
	if err != nil {
		return nil, nil, nil, err
	}
	mech, err := dp.New(sp.Mechanism.Name, dp.MechanismParams{
		GMax: sp.ClipNorm, BatchSize: sp.BatchSize, Dim: m.Dim(),
		Budget: dp.Budget{Epsilon: sp.Mechanism.Epsilon, Delta: sp.Mechanism.Delta},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	st := newStamps(sh.steps, sh.warmup, sh.period, rec.epoch, rec)
	st.begin()
	res, err := simulate.Run(context.Background(), simulate.Config{
		Model:          wrapModel(m, lane),
		Train:          train,
		Test:           test,
		GAR:            wrapGAR(g, lane),
		Attack:         wrapAttack(a, lane),
		Mechanism:      wrapMech(mech, lane),
		Steps:          sp.Steps,
		BatchSize:      sp.BatchSize,
		LearningRate:   sp.LearningRate,
		WorkerMomentum: sp.WorkerMomentum,
		ClipNorm:       sp.ClipNorm,
		Seed:           sp.Seed,
		AccuracyEvery:  sp.AccuracyEvery,
		StepHook:       st.hook,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return rec, st, res.Params, nil
}

// runLocal is one repetition of fig2-alie-dp or krum-n256: sh.runs runs,
// each on inputs generated from its own seed derived from the workload
// seed.
func runLocal(sh localShape, p params) (*repResult, error) {
	res := &repResult{}
	var untraced []*untracedRun
	var win window
	for k := 0; k < sh.runs; k++ {
		u, err := runLocalUntraced(sh, runSeed(p.seed, k))
		if err != nil {
			return nil, err
		}
		if k == 0 {
			res.SetupS = u.setupS
		}
		win.add(u.st.window())
		res.FinalLoss += u.finalLoss / float64(sh.runs)
		res.Attempted += sh.steps
		untraced = append(untraced, u)
	}
	res.RSSMB = peakRSSMB()
	win.report(res)
	if !p.trace {
		return res, nil
	}
	var traced []tracedRun
	var tracedWin, againWin window
	for k, u := range untraced {
		seed := runSeed(p.seed, k)
		rec, st, params, err := runLocalTraced(sh, seed)
		if err != nil {
			return nil, err
		}
		res.check("traced parameters bit-identical to untraced", sameBits(params, u.params), fmt.Sprintf("seed %d", seed))
		again, err := runLocalUntraced(sh, seed)
		if err != nil {
			return nil, err
		}
		traced = append(traced, tracedRun{rec, st})
		tracedWin.add(st.window())
		againWin.add(again.st.window())
	}
	res.Layers = localLayers(traced, sh.accEvery)
	res.Layers["trace.overhead"] = overhead(againWin, tracedWin, res)
	res.Layers["data.generate_ms"] = untraced[0].genMs
	res.Layers["spec.first_round_ms"] = untraced[0].firstMs
	win.diagnostics(res.Layers)
	res.check("layer self times plus residual equal the round",
		res.Layers["trace.residual_min_ms"] >= 0 && addsUp(res.Layers, localParts, "trace.round_ms"), "")
	if sh.fleet {
		specs := make([]spec.Spec, sh.runs)
		for k := range specs {
			specs[k] = sh.spec(runSeed(p.seed, k))
		}
		fl, err := fleetPhase(specs, p, res)
		if err != nil {
			return nil, err
		}
		maps.Copy(res.Layers, fl)
	}
	return res, writeSpans(traced[0].rec, p, "simulate")
}

// tracedRun is one traced run: its spans and its round timestamps.
type tracedRun struct {
	rec *Recorder
	st  *stamps
}

// localLayers splits the traced rounds of the timed windows into layer
// self times. The uncovered remainder of each round is the residual: on
// evaluation rounds it also holds the test-accuracy pass, whose Predict
// calls are counted but not timed, so the evaluation cost is the mean
// residual of evaluation rounds less that of the other rounds.
func localLayers(runs []tracedRun, accEvery int) map[string]float64 {
	var self [numKinds]float64
	var total, resEval, resOther, nEval, nOther, aggCalls, predicts, allEvals float64
	minResidual := math.Inf(1)
	for _, tr := range runs {
		st := tr.st
		steps := len(st.end)
		isEval := func(r int) bool { return accEvery > 0 && (r%accEvery == 0 || r == steps-1) }
		residual := make([]float64, steps)
		for r := st.warmup; r < steps; r++ {
			residual[r] = float64(st.end[r] - st.start[r])
			total += residual[r]
		}
		for _, l := range tr.rec.lanes {
			ss := l.selfTimes()
			for i, s := range l.spans {
				if int(s.round) < st.warmup || int(s.round) >= steps {
					continue
				}
				self[s.kind] += float64(ss[i])
				residual[s.round] -= float64(ss[i])
				if s.kind == kAggregate {
					aggCalls++
				}
			}
		}
		for r := 0; r < steps; r++ {
			if isEval(r) {
				allEvals++
			}
			if r < st.warmup {
				continue
			}
			minResidual = min(minResidual, residual[r])
			if isEval(r) {
				resEval += residual[r]
				nEval++
			} else {
				resOther += residual[r]
				nOther++
			}
		}
		predicts += float64(tr.rec.predicts.Load())
	}
	rounds := nEval + nOther
	perRound := func(ns float64) float64 { return ns / rounds / 1e6 }
	out := map[string]float64{
		"model.gradient_ms":     perRound(self[kGradient]),
		"model.loss_ms":         perRound(self[kLoss]),
		"dp.noise_ms":           perRound(self[kNoise]),
		"attack.craft_ms":       perRound(self[kCraft]),
		"gar.aggregate_ms":      perRound(self[kAggregate]),
		"gar.aggregate_calls":   aggCalls / rounds,
		"trace.round_ms":        perRound(total),
		"trace.residual_min_ms": minResidual / 1e6,
	}
	evalMs := 0.0
	if nEval > 0 && nOther > 0 {
		evalMs = (resEval/nEval - resOther/nOther) / 1e6
		out["model.predict_calls_per_eval"] = predicts / allEvals
	}
	out["model.eval_ms_per_eval"] = evalMs
	out["model.eval_ms"] = evalMs * nEval / rounds
	out["simulate.other_ms"] = perRound(resEval+resOther) - out["model.eval_ms"]
	return out
}

// localParts partition a traced simulator round.
var localParts = []string{
	"model.gradient_ms", "model.loss_ms", "model.eval_ms", "dp.noise_ms",
	"attack.craft_ms", "gar.aggregate_ms", "simulate.other_ms",
}

// addsUp reports whether parts sum to the positive total. A negative
// part (a span outside its round's bounds) fails the callers' checks
// separately.
func addsUp(l map[string]float64, parts []string, total string) bool {
	sum := 0.0
	for _, k := range parts {
		sum += l[k]
	}
	t := l[total]
	return t > 0 && abs(sum-t) <= 1e-9*t
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
