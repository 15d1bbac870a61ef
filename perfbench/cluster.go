package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dpbyz/internal/cluster"
	"dpbyz/internal/data"
	"dpbyz/internal/gar"
	"dpbyz/internal/model"
	"dpbyz/internal/randx"
	"dpbyz/internal/spec"
)

// clusterShape is a parameter-server workload over the in-process
// ChanTransport: mean estimation on two-gaussians, plain averaging, no DP
// and no attack, so the round is dominated by moving d floats each way.
type clusterShape struct {
	points, dim, trainN int
	n, batch            int
	steps, warmup       int
}

func (sh clusterShape) spec(seed uint64) spec.Spec {
	return spec.Spec{
		Name:         "perfbench",
		Model:        spec.ModelSpec{Name: "mean-estimation"},
		GAR:          spec.GARSpec{Name: "average", N: sh.n},
		Steps:        sh.steps,
		BatchSize:    sh.batch,
		LearningRate: 0.5,
		Seed:         seed,
	}
}

func clusterAvgShape(tiny bool) clusterShape {
	if tiny {
		return clusterShape{points: 100, dim: 200, trainN: 80, n: 4, batch: 5, steps: 40, warmup: 5}
	}
	return clusterShape{points: 600, dim: 10_000, trainN: 480, n: 32, batch: 5, steps: 400, warmup: 20}
}

func gaussians(sh clusterShape, seed uint64) (full, train, test *data.Dataset, err error) {
	full, err = data.TwoGaussians(data.TwoGaussiansConfig{N: sh.points, Dim: sh.dim, Separation: 2, Seed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	train, test, err = full.Split(sh.trainN, randx.New(seed^splitSalt))
	return full, train, test, err
}

type clusterRun struct {
	*untracedRun
	train, test *data.Dataset
	stats       *spec.ClusterStats
}

// runClusterUntraced runs the Spec on spec.ClusterBackend over a fresh
// ChanTransport handed in with spec.WithTransport.
func runClusterUntraced(sh clusterShape, seed uint64) (*clusterRun, error) {
	sp := sh.spec(seed)
	st := newStamps(sh.steps, sh.warmup, 1, time.Now(), nil)
	st.inputs = st.now()
	full, train, test, err := gaussians(sh, seed)
	if err != nil {
		return nil, err
	}
	st.inputsDone = st.now()
	st.begin()
	res, err := (&spec.ClusterBackend{}).Run(context.Background(), sp,
		spec.WithDatasets(train, test), spec.WithTransport(cluster.NewChanTransport()),
		spec.WithAddr("perfbench"), spec.WithObserver(st))
	if err != nil {
		return nil, err
	}
	m, err := model.NewMeanEstimation(sh.dim)
	if err != nil {
		return nil, err
	}
	return &clusterRun{
		untracedRun: newUntracedRun(st, res.Params, model.DatasetLoss(m, res.Params, full)),
		train:       train, test: test, stats: res.Cluster,
	}, nil
}

// runClusterTraced builds the same cluster from cluster.NewServer and
// cluster.RunWorker with decorated components and a decorated transport.
func runClusterTraced(sh clusterShape, seed uint64, train *data.Dataset) (*Recorder, *stamps, *Lane, []float64, error) {
	sp := sh.spec(seed)
	rec := NewRecorder()
	server := rec.NewLane("server")
	tr := &tracedTransport{inner: cluster.NewChanTransport(), rec: rec, lane: server}
	m, err := model.NewMeanEstimation(train.Dim())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	g, err := gar.New(sp.GAR.Name, sp.GAR.N, sp.GAR.F)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	st := newStamps(sh.steps, sh.warmup, 1, rec.epoch, rec)
	st.begin()
	srv, err := cluster.NewServer(cluster.ServerConfig{
		Addr: "perfbench", Transport: tr, GAR: wrapGAR(g, server), Dim: m.Dim(),
		Steps: sp.Steps, LearningRate: sp.LearningRate, Momentum: sp.Momentum,
		StepHook: st.hook,
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cfgs := make([]cluster.WorkerConfig, sh.n)
	for i := range cfgs {
		lane := rec.NewLane(fmt.Sprintf("worker-%d", i))
		cfgs[i] = cluster.WorkerConfig{
			Addr: srv.Addr(), Transport: tr.forLane(lane), WorkerID: i,
			Model: wrapModel(m, lane), Train: train, BatchSize: sp.BatchSize,
			Seed: sp.Seed, LearningRate: sp.LearningRate,
		}
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(cfg cluster.WorkerConfig) {
			defer wg.Done()
			// A worker error after a completed run only means the final
			// broadcast raced the teardown; the server's result decides.
			_, _ = cluster.RunWorker(ctx, cfg)
		}(cfgs[i])
	}
	res, err := srv.Run(ctx)
	stop()
	wg.Wait()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if res.MissedGradients != 0 || res.AcceptedGradients != sh.n*sh.steps {
		return nil, nil, nil, nil, fmt.Errorf("traced cluster ledger: accepted %d missed %d, want %d and 0",
			res.AcceptedGradients, res.MissedGradients, sh.n*sh.steps)
	}
	return rec, st, server, res.Params, nil
}

// runCluster is one repetition of cluster-avg-d1e4.
func runCluster(sh clusterShape, p params) (*repResult, error) {
	u, err := runClusterUntraced(sh, p.seed)
	if err != nil {
		return nil, err
	}
	res := &repResult{SetupS: u.setupS, FinalLoss: u.finalLoss, RSSMB: peakRSSMB()}
	win := u.st.window()
	win.report(res)
	want := sh.n * sh.steps
	res.Attempted += want
	res.Failed += u.stats.Missed + u.stats.Discarded
	res.check("cluster ledger: accepted+missed == n*rounds, missed == 0",
		u.stats.Accepted+u.stats.Missed == want && u.stats.Missed == 0,
		fmt.Sprintf("accepted %d missed %d discarded %d, n*rounds %d",
			u.stats.Accepted, u.stats.Missed, u.stats.Discarded, want))
	if p.rep == 0 {
		local, err := (&spec.LocalBackend{}).Run(context.Background(), sh.spec(p.seed),
			spec.WithDatasets(u.train, u.test))
		if err != nil {
			return nil, err
		}
		res.check("cluster parameters bit-identical to LocalBackend", sameBits(local.Params, u.params), "")
	}
	if !p.trace {
		return res, nil
	}
	rec, st, server, params, err := runClusterTraced(sh, p.seed, u.train)
	if err != nil {
		return nil, err
	}
	res.check("traced parameters bit-identical to untraced", sameBits(params, u.params), "")
	again, err := runClusterUntraced(sh, p.seed)
	if err != nil {
		return nil, err
	}
	res.Layers = clusterLayers(rec, st, server)
	res.Layers["trace.overhead"] = overhead(again.st.window(), st.window(), res)
	res.Layers["data.generate_ms"] = u.genMs
	res.Layers["spec.first_round_ms"] = u.firstMs
	win.diagnostics(res.Layers)
	res.check("server path phases add up to the round",
		res.Layers["trace.residual_min_ms"] >= 0 && addsUp(res.Layers, clusterParts, "trace.round_ms"), "")
	return res, writeSpans(rec, p, "cluster")
}

// clusterParts partition the server's blocking path through a round.
var clusterParts = []string{"cluster.broadcast_ms", "cluster.collect_ms", "gar.aggregate_ms", "cluster.commit_ms"}

// clusterLayers splits each round of the timed window along the server's
// blocking path: broadcast (round start to the end of its last params
// write), collect (to the start of aggregation), aggregate, and commit
// (server update and history, to the step hook). Worker-side work runs
// off that path and is reported as busy time summed over workers.
func clusterLayers(rec *Recorder, st *stamps, server *Lane) map[string]float64 {
	steps := len(st.end)
	bcastEnd := make([]int64, steps)
	aggStart := make([]int64, steps)
	aggEnd := make([]int64, steps)
	for _, s := range server.spans {
		r := int(s.round)
		if r >= steps {
			continue
		}
		switch s.kind {
		case kWrite:
			bcastEnd[r] = max(bcastEnd[r], s.end)
		case kAggregate:
			aggStart[r], aggEnd[r] = s.start, s.end
		}
	}
	var bcast, collect, agg, commit, total float64
	minPhase := int64(0)
	for r := st.warmup; r < steps; r++ {
		phases := [4]int64{bcastEnd[r] - st.start[r], aggStart[r] - bcastEnd[r], aggEnd[r] - aggStart[r], st.end[r] - aggEnd[r]}
		bcast += float64(phases[0])
		collect += float64(phases[1])
		agg += float64(phases[2])
		commit += float64(phases[3])
		total += float64(st.end[r] - st.start[r])
		minPhase = min(minPhase, phases[0], phases[1], phases[2], phases[3])
	}
	var write, read, compute, grad, bytes, frames, aggCalls float64
	for _, l := range rec.lanes {
		self := l.selfTimes()
		var lastRead int64 = -1
		for i, s := range l.spans {
			if s.kind == kRead {
				lastRead = s.end
			}
			if int(s.round) < st.warmup || int(s.round) >= steps {
				continue
			}
			d := float64(s.end - s.start)
			switch s.kind {
			case kWrite:
				write += d
				bytes += float64(s.bytes)
				frames++
				if l != server && lastRead >= 0 {
					compute += float64(s.start - lastRead)
				}
			case kRead:
				read += d
			case kGradient:
				grad += float64(self[i])
			case kAggregate:
				aggCalls++
			}
		}
	}
	rounds := float64(steps - st.warmup)
	ms := func(ns float64) float64 { return ns / rounds / 1e6 }
	return map[string]float64{
		"cluster.broadcast_ms":       ms(bcast),
		"cluster.collect_ms":         ms(collect),
		"gar.aggregate_ms":           ms(agg),
		"gar.aggregate_calls":        aggCalls / rounds,
		"cluster.commit_ms":          ms(commit),
		"cluster.transport_write_ms": ms(write),
		"cluster.transport_read_ms":  ms(read),
		"cluster.worker_compute_ms":  ms(compute),
		"cluster.bytes_per_round":    bytes / rounds,
		"cluster.frames_per_round":   frames / rounds,
		"model.gradient_ms":          ms(grad),
		"trace.round_ms":             ms(total),
		"trace.residual_min_ms":      float64(minPhase) / 1e6,
	}
}
