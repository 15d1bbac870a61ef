package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"dpbyz/internal/fleet"
	"dpbyz/internal/spec"
)

// fleetCheckpointEvery is the snapshot cadence of the runs the fleet
// phase submits.
const fleetCheckpointEvery = 10

// fleetPhase measures the fleet layer on a workload's own specs: each is
// run once on the bare LocalBackend, then submitted through a fresh
// fleet.Service by one closed-loop client that waits for Finished before
// the next. The client follows each run's event log, so every run splits
// into submit, start wait, train and finish from outside. Every run must
// end done with a final snapshot equal to the bare run's parameters.
// Afterwards the store is reopened, the restart-recovery path.
func fleetPhase(specs []spec.Spec, p params, res *repResult) (map[string]float64, error) {
	root, err := os.MkdirTemp(p.out, "fleet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	bare := make([][]float64, len(specs))
	var bareMs []float64
	for k, sp := range specs {
		t := time.Now()
		out, err := (&spec.LocalBackend{}).Run(context.Background(), sp)
		if err != nil {
			return nil, err
		}
		bareMs = append(bareMs, float64(time.Since(t))/1e6)
		bare[k] = out.Params
	}

	svc, err := fleet.Open(fleet.Config{Root: root, Width: 1})
	if err != nil {
		return nil, err
	}
	rec := NewRecorder()
	lane := rec.NewLane("client")
	runMs, ids, err := submitEach(svc, specs, bare, lane, res)
	svc.Stop()
	if err != nil {
		return nil, err
	}
	var bytes, events float64
	for _, id := range ids {
		b, err := dirBytes(fleet.NewStore(root).Dir(id).Path())
		if err != nil {
			return nil, err
		}
		bytes += float64(b)
		log, err := svc.Events(id)
		if err != nil {
			return nil, err
		}
		events += float64(log.Len())
	}

	t := time.Now()
	if _, err := fleet.Open(fleet.Config{Root: root, Width: 1}); err != nil {
		return nil, err
	}
	reopenMs := float64(time.Since(t)) / 1e6
	// The reopened service is not stopped: Service.Stop panics with "close
	// of closed channel" on a service that reopened terminal runs (Open
	// closes their finished channels directly, and Stop closes them again
	// through markFinished). It holds no open files and runs nothing.

	n := float64(len(specs))
	var sum [numKinds]float64
	minPhase := int64(0)
	for _, s := range lane.spans {
		sum[s.kind] += float64(s.end - s.start)
		minPhase = min(minPhase, s.end-s.start)
	}
	per := func(ns float64) float64 { return ns / n / 1e6 }
	layers := map[string]float64{
		"fleet.submit_ms":           per(sum[kSubmit]),
		"fleet.start_wait_ms":       per(sum[kStartWait]),
		"fleet.train_ms":            per(sum[kTrain]),
		"fleet.finish_ms":           per(sum[kFinish]),
		"fleet.overhead_ms":         median(runMs) - median(bareMs),
		"fleet.reopen_ms":           reopenMs,
		"fleet.store_bytes_per_run": bytes / n,
		"fleet.events_per_run":      events / n,
		"trace.run_ms":              per(sum[kSubmit] + sum[kStartWait] + sum[kTrain] + sum[kFinish]),
	}
	res.check("fleet phases add up to the run", minPhase >= 0 && addsUp(layers, fleetParts, "trace.run_ms"), "")
	return layers, writeSpans(rec, p, "fleet")
}

// submitEach submits the specs one at a time and returns each run's
// latency, Submit to Finished. Each run must end done with a final
// snapshot equal to its bare-backend parameters.
func submitEach(svc *fleet.Service, specs []spec.Spec, bare [][]float64, lane *Lane, res *repResult) ([]float64, []spec.RunID, error) {
	now := lane.rec.now
	var runMs []float64
	var ids []spec.RunID
	notDone, differ := 0, 0
	for k, sp := range specs {
		t0 := now()
		sub, err := svc.Submit(&spec.Submission{CheckpointEvery: fleetCheckpointEvery, Runs: []spec.Spec{sp}})
		if err != nil {
			return nil, nil, err
		}
		id := sub[0]
		t1 := now()
		first, last, err := followEvents(svc, id, sp.Steps, now)
		if err != nil {
			return nil, nil, err
		}
		done, err := svc.Finished(id)
		if err != nil {
			return nil, nil, err
		}
		<-done
		t2 := now()
		lane.add(kSubmit, int32(k), t0, t1)
		lane.add(kStartWait, int32(k), t1, first)
		lane.add(kTrain, int32(k), first, last)
		lane.add(kFinish, int32(k), last, t2)
		runMs = append(runMs, float64(t2-t0)/1e6)
		ids = append(ids, id)

		meta, err := svc.Meta(id)
		if err != nil {
			return nil, nil, err
		}
		snap, err := svc.Snapshot(id)
		if err != nil {
			return nil, nil, err
		}
		if meta.Status != fleet.StatusDone {
			notDone++
		} else if snap == nil || snap.Step != sp.Steps || !sameBits(snap.Params, bare[k]) {
			differ++
		}
	}
	res.check("every fleet run is done", notDone == 0, fmt.Sprintf("%d of %d not done", notDone, len(specs)))
	res.check("fleet snapshots equal the bare backend", differ == 0, fmt.Sprintf("%d of %d differ", differ, len(specs)))
	return runMs, ids, nil
}

// fleetParts partition a traced fleet run, Submit to Finished.
var fleetParts = []string{"fleet.submit_ms", "fleet.start_wait_ms", "fleet.train_ms", "fleet.finish_ms"}

// followEvents waits on the run's event log and returns when its first
// and its last step event were seen.
func followEvents(svc *fleet.Service, id spec.RunID, steps int, now func() int64) (first, last int64, err error) {
	log, err := svc.Events(id)
	if err != nil {
		return 0, 0, err
	}
	first = -1
	cursor := 0
	for {
		lines, changed, closed := log.Next(cursor)
		if len(lines) > 0 {
			cursor += len(lines)
			if first < 0 {
				first = now()
			}
			if cursor >= steps {
				return first, now(), nil
			}
		}
		if closed {
			return 0, 0, fmt.Errorf("fleet: run %s event log closed after %d of %d events", id, cursor, steps)
		}
		<-changed
	}
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
