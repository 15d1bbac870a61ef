package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dpbyz/internal/metrics"
	"dpbyz/internal/spec"
)

// params is what one repetition runs: a workload at a seed, traced or
// not, at full or tiny size.
type params struct {
	workload string
	seed     uint64
	rep      int
	trace    bool
	tiny     bool
	out      string // directory for scratch stores and span files
}

// check is one correctness check of a repetition.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// repResult is what one repetition (one fresh process) reports.
type repResult struct {
	SetupS    float64            `json:"setup_s"`
	OpMs      []float64          `json:"op_ms"`
	WindowS   float64            `json:"window_s"`
	MeasuredS float64            `json:"measured_s"` // every timed window, traced ones too
	FinalLoss float64            `json:"final_loss"`
	RSSMB     float64            `json:"max_rss_mb"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []check            `json:"checks"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

func (r *repResult) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: detail})
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// opsPerS is the repetition's throughput over its timed window.
func (r *repResult) opsPerS() float64 { return float64(len(r.OpMs)) / r.WindowS }

// runSeed derives the seed of run k of a repetition from the workload
// seed.
func runSeed(seed uint64, k int) uint64 { return seed<<8 | uint64(k+1) }

// stamps is the spec.Observer (or simulate/cluster step hook) that times
// rounds from outside. Wall time end[k] is read on entry to round k's hook
// and start[k+1] on its exit, so the hook's own work is in no round;
// process CPU time is read at the same points at op boundaries. At the end
// of the last warm-up round it runs a GC and snapshots the allocator, so
// the timed window starts with a clean heap.
type stamps struct {
	epoch              time.Time
	rec                *Recorder // nil on untraced runs
	period             int
	warmup             int
	start, end         []int64 // wall ns since epoch
	cpuStart, cpuEnd   []int64 // process CPU ns
	inputs, inputsDone int64   // wall ns around input generation
	before, after      runtime.MemStats
	stealBefore        int64
	stealAfter         int64
}

func newStamps(steps, warmup, period int, epoch time.Time, rec *Recorder) *stamps {
	return &stamps{
		epoch: epoch, rec: rec, warmup: warmup, period: period,
		start: make([]int64, steps), end: make([]int64, steps),
		cpuStart: make([]int64, steps), cpuEnd: make([]int64, steps),
	}
}

func (s *stamps) now() int64 { return int64(time.Since(s.epoch)) }

// begin stamps the start of round 0, just before the backend is called.
func (s *stamps) begin() { s.start[0] = s.now() }

// OnStep implements spec.Observer.
func (s *stamps) OnStep(ev spec.StepEvent) error { return s.step(ev.Step) }

// hook is the same observer in simulate/cluster StepHook form.
func (s *stamps) hook(rec metrics.StepRecord, _ []float64) error { return s.step(rec.Step) }

func (s *stamps) step(k int) error {
	s.end[k] = s.now()
	boundary := (k+1)%s.period == 0
	if boundary {
		s.cpuEnd[k] = cpuTime()
	}
	if k == s.warmup-1 {
		runtime.GC()
		runtime.ReadMemStats(&s.before)
		s.stealBefore = stealTicks()
	}
	if k == len(s.end)-1 {
		s.stealAfter = stealTicks()
		runtime.ReadMemStats(&s.after)
	}
	if s.rec != nil {
		s.rec.round.Store(int32(k + 1))
	}
	if k+1 < len(s.start) {
		if boundary {
			s.cpuStart[k+1] = cpuTime()
		}
		s.start[k+1] = s.now()
	}
	return nil
}

// window is the timed part of one or more runs: the ops after warm-up,
// their wall time, and the process's, allocator's and host's counters over
// the same span.
type window struct {
	ops        []float64 // wall per op, ms
	cpuMs      float64   // process CPU of the ops
	rounds     int
	seconds    float64
	allocBytes float64
	gcPauseNs  float64
	gcCycles   float64
	stealS     float64 // host CPU time stolen by the hypervisor, all CPUs
}

// window returns the run's timed window: ops of s.period rounds each,
// after the warm-up rounds (warmup must be a multiple of the period).
func (s *stamps) window() window {
	last := len(s.end) - 1
	w := window{
		rounds:     len(s.end) - s.warmup,
		seconds:    float64(s.end[last]-s.start[s.warmup]) / 1e9,
		allocBytes: float64(s.after.TotalAlloc - s.before.TotalAlloc),
		gcPauseNs:  float64(s.after.PauseTotalNs - s.before.PauseTotalNs),
		gcCycles:   float64(s.after.NumGC - s.before.NumGC),
		stealS:     float64(s.stealAfter-s.stealBefore) / userHZ,
	}
	for k := s.warmup; k+s.period-1 <= last; k += s.period {
		w.ops = append(w.ops, float64(s.end[k+s.period-1]-s.start[k])/1e6)
		w.cpuMs += float64(s.cpuEnd[k+s.period-1]-s.cpuStart[k]) / 1e6
	}
	return w
}

func (w *window) add(o window) {
	w.ops = append(w.ops, o.ops...)
	w.cpuMs += o.cpuMs
	w.rounds += o.rounds
	w.seconds += o.seconds
	w.allocBytes += o.allocBytes
	w.gcPauseNs += o.gcPauseNs
	w.gcCycles += o.gcCycles
	w.stealS += o.stealS
}

func (w window) opsPerS() float64 { return float64(len(w.ops)) / w.seconds }

// report fills the end-to-end fields of res from the untraced window.
func (w window) report(res *repResult) {
	res.OpMs = w.ops
	res.WindowS = w.seconds
	res.MeasuredS += w.seconds
}

// diagnostics fills the runtime and host figures of the untraced window:
// GC per round; allocation and process CPU per op, whose ratio to the op's
// wall time is the parallelism the op used; and the share of the host's
// CPU time the hypervisor stole, which the wall-clock figures include.
func (w window) diagnostics(layers map[string]float64) {
	layers["runtime.gc_pause_ms"] = w.gcPauseNs / 1e6 / float64(w.rounds)
	layers["runtime.gc_cycles"] = w.gcCycles / float64(w.rounds)
	layers["runtime.alloc_bytes_per_op"] = w.allocBytes / float64(len(w.ops))
	layers["runtime.cpu_ms_per_op"] = w.cpuMs / float64(len(w.ops))
	layers["host.steal_share"] = w.stealS / (w.seconds * float64(runtime.NumCPU()))
}

// overhead is the tracing overhead: untraced over traced throughput, less
// one. The untraced side is a warm rerun, so neither side is a process's
// cold first run.
func overhead(untraced, traced window, res *repResult) float64 {
	res.MeasuredS += untraced.seconds + traced.seconds
	return untraced.opsPerS()/traced.opsPerS() - 1
}

// medianRoundMs is the median wall time per round of the timed window.
func (s *stamps) medianRoundMs() float64 {
	return median(s.window().ops) / float64(s.period)
}

// peakRSSMB reads the process's peak resident set from /proc, falling
// back to 0 where it is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's CPU time so far, user plus system, in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// userHZ is the tick rate of /proc/stat.
const userHZ = 100

// stealTicks reads the host's total steal time from /proc/stat, 0 where it
// is not available.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}
