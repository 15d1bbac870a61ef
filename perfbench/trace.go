package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// kind names the layer a span belongs to. The names are the per-layer
// metric prefixes, which are the repository's package names.
type kind uint8

const (
	kGradient  kind = iota // model.Gradient / ClippedBatchGradient
	kLoss                  // model.Loss (the per-step loss metric)
	kNoise                 // dp.Mechanism.Perturb / PerturbInto
	kCraft                 // attack.Attack.Craft
	kAggregate             // gar.GAR.Aggregate / AggregateInto
	kWrite                 // cluster.Conn.Write (one frame)
	kRead                  // cluster.Conn.Read of a frame payload
	kSubmit                // fleet.Service.Submit
	kStartWait             // fleet: submit return to the first step event
	kTrain                 // fleet: first to last step event
	kFinish                // fleet: last step event to Finished
	numKinds
)

var kindNames = [numKinds]string{
	"model.gradient", "model.loss", "dp.noise", "attack.craft", "gar.aggregate",
	"cluster.transport_write", "cluster.transport_read",
	"fleet.submit", "fleet.start_wait", "fleet.train", "fleet.finish",
}

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's epoch on the monotonic clock; parent indexes the same lane's
// spans (-1 for a top-level span); round is the round index (the run
// index on the fleet) current when the span began.
type span struct {
	start, end int64
	parent     int32
	round      int32
	bytes      int32
	kind       kind
}

// Recorder owns every lane of one traced run and the round counter the
// lanes stamp their spans with. Spans stay in memory until the run ends.
type Recorder struct {
	epoch    time.Time
	round    atomic.Int32
	predicts atomic.Int64
	lanes    []*Lane
}

// NewRecorder starts a recorder whose clock reads zero now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Lane is a span sequence written by one goroutine at a time: the
// simulator loop, one cluster worker, the server's round loop, or one
// server-side connection reader. Nesting is tracked per lane, so spans of
// concurrent goroutines never parent each other.
type Lane struct {
	rec   *Recorder
	name  string
	spans []span
	stack []int32
}

// NewLane registers a lane. Call it before the goroutine that uses the
// lane starts.
func (r *Recorder) NewLane(name string) *Lane {
	l := &Lane{rec: r, name: name, spans: make([]span, 0, 1024)}
	r.lanes = append(r.lanes, l)
	return l
}

// begin opens a span of kind k and returns its index.
func (l *Lane) begin(k kind) int32 {
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	idx := int32(len(l.spans))
	l.spans = append(l.spans, span{
		start: l.rec.now(), end: -1, parent: parent,
		round: l.rec.round.Load(), kind: k,
	})
	l.stack = append(l.stack, idx)
	return idx
}

// end closes the innermost open span, recording bytes moved if any.
func (l *Lane) end(idx int32, bytes int) {
	l.spans[idx].end = l.rec.now()
	l.spans[idx].bytes = int32(bytes)
	l.stack = l.stack[:len(l.stack)-1]
}

// add records an already-closed top-level span, for intervals the
// benchmark derives from its own timestamps (the fleet phases).
func (l *Lane) add(k kind, round int32, start, end int64) {
	l.spans = append(l.spans, span{start: start, end: end, parent: -1, round: round, kind: k})
}

// selfTimes returns each span's duration less the durations of its direct
// children, indexed like l.spans.
func (l *Lane) selfTimes() []int64 {
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// WriteSpans writes every span as one tab-separated line: lane, kind,
// round (run index on the fleet), parent, start and end in ns, bytes.
func (r *Recorder) WriteSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "lane\tkind\tround\tparent\tstart_ns\tend_ns\tbytes")
	for _, l := range r.lanes {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
				l.name, kindNames[s.kind], s.round, s.parent, s.start, s.end, s.bytes)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
