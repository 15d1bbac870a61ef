// Command perfbench is the repository's same-host benchmark. It runs one
// workload at one seed, prints every end-to-end metric (or, with
// --trace 1, every per-layer metric) by name with its unit and sample
// count, checks that the program's outputs are correct, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}.
//
//	python3 perfbench/run.py --workload krum-n256 --seed 1 --seconds 10 --trace 0
//
// run.py builds this program into .bench_build/ and runs it from the
// repository root. Each repetition is a fresh child process of the same
// binary; repetitions continue until the timed windows add up to
// --seconds (at least minReps of them). See README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	op   string // the unit of work ops_per_s and op_*_ms count
	run  func(p params) (*repResult, error)
}

var workloads = []workload{
	{"fig2-alie-dp", "one accuracy period: 50 rounds, one of which evaluates test accuracy",
		func(p params) (*repResult, error) { return runLocal(fig2Shape(p.tiny), p) }},
	{"krum-n256", "one round",
		func(p params) (*repResult, error) { return runLocal(krumShape(p.tiny), p) }},
	{"cluster-avg-d1e4", "one round",
		func(p params) (*repResult, error) { return runCluster(clusterAvgShape(p.tiny), p) }},
}

// metric is one reported quantity; BENCHMARK.json lists the same names
// and units.
type metric struct {
	name, unit, better string
}

var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"final_loss", "loss", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

var perLayer = []metric{
	{"model.gradient_ms", "ms", "lower"},
	{"model.loss_ms", "ms", "lower"},
	{"model.eval_ms", "ms", "lower"},
	{"model.eval_ms_per_eval", "ms", "lower"},
	{"model.predict_calls_per_eval", "count", "lower"},
	{"dp.noise_ms", "ms", "lower"},
	{"attack.craft_ms", "ms", "lower"},
	{"gar.aggregate_ms", "ms", "lower"},
	{"gar.aggregate_calls", "count", "lower"},
	{"simulate.other_ms", "ms", "lower"},
	{"cluster.broadcast_ms", "ms", "lower"},
	{"cluster.collect_ms", "ms", "lower"},
	{"cluster.commit_ms", "ms", "lower"},
	{"cluster.transport_write_ms", "ms", "lower"},
	{"cluster.transport_read_ms", "ms", "lower"},
	{"cluster.worker_compute_ms", "ms", "lower"},
	{"cluster.bytes_per_round", "B", "lower"},
	{"cluster.frames_per_round", "count", "lower"},
	{"fleet.submit_ms", "ms", "lower"},
	{"fleet.start_wait_ms", "ms", "lower"},
	{"fleet.train_ms", "ms", "lower"},
	{"fleet.finish_ms", "ms", "lower"},
	{"fleet.overhead_ms", "ms", "lower"},
	{"fleet.reopen_ms", "ms", "lower"},
	{"fleet.store_bytes_per_run", "B", "lower"},
	{"fleet.events_per_run", "count", "lower"},
	{"data.generate_ms", "ms", "lower"},
	{"spec.first_round_ms", "ms", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.cpu_ms_per_op", "ms", "lower"},
	{"host.steal_share", "ratio", "lower"},
	{"trace.round_ms", "ms", "lower"},
	{"trace.run_ms", "ms", "lower"},
	{"trace.overhead", "ratio", "lower"},
}

// defaultSeed is the seed the benchmark is tuned on; heldOutSeed is kept
// aside, and a claimed gain must also hold on it.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

const (
	// minReps is the fewest fresh-process repetitions behind a median.
	minReps = 3
	// maxReps and repBudget bound one invocation's wall time.
	maxReps   = 60
	repBudget = 120 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", defaultSeed, "input seed")
		seconds = flag.Float64("seconds", 10, "timed seconds to accumulate over repetitions")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		child   = flag.Bool("child", false, "run one repetition and print its raw result")
		rep     = flag.Int("rep", 0, "repetition index (child mode)")
		out     = flag.String("out", ".bench_build", "directory for scratch stores and span files")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %v, --trace 0|1 and a non-zero --seed\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	p := params{workload: w.name, seed: *seed, rep: *rep, trace: *trace == 1, out: *out}
	if *child {
		res, err := w.run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s rep %d: %v\n", w.name, *rep, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			os.Exit(1)
		}
		return
	}
	if !orchestrate(w, p, *seconds, os.Stdout) {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runChild runs one repetition in a fresh process: a clean heap, an empty
// allocator pool and a peak RSS of its own.
func runChild(p params) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if p.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", p.workload, "-seed", strconv.FormatUint(p.seed, 10),
		"-trace", trace, "-rep", strconv.Itoa(p.rep), "-out", p.out)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("repetition %d: %w", p.rep, err)
	}
	var res repResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("repetition %d: %w", p.rep, err)
	}
	return &res, nil
}

// orchestrate runs repetitions until their timed windows add up to
// seconds, then prints the report. It returns whether every check passed.
func orchestrate(w workload, p params, seconds float64, stdout io.Writer) bool {
	return report(w, p, collect(p, seconds, runChild), stdout)
}

// reps is the outcome of all repetitions of one invocation.
type reps struct {
	results []*repResult
	errs    []error
}

func collect(p params, seconds float64, run func(params) (*repResult, error)) reps {
	var rs reps
	start := time.Now()
	measured := 0.0
	for i := 0; i < maxReps; i++ {
		if i >= minReps && (measured >= seconds || time.Since(start) > repBudget) {
			break
		}
		p.rep = i
		res, err := run(p)
		if err != nil {
			rs.errs = append(rs.errs, err)
			break
		}
		rs.results = append(rs.results, res)
		measured += res.MeasuredS
	}
	return rs
}

// stamp identifies where and what a result was measured on.
type stamp struct {
	Workload   string  `json:"workload"`
	Op         string  `json:"op"`
	Seed       uint64  `json:"seed"`
	Trace      bool    `json:"trace"`
	Reps       int     `json:"reps"`
	Host       string  `json:"host"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"numcpu"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
	Seconds    float64 `json:"timed_seconds"`
}

func newStamp(w workload, p params, rs reps) stamp {
	host, _ := os.Hostname()
	st := stamp{
		Workload: w.name, Op: w.op, Seed: p.seed, Trace: p.trace, Reps: len(rs.results),
		Host: host, Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Commit: "unknown", Source: sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				st.Commit = s.Value
			}
		}
	}
	for _, r := range rs.results {
		st.Seconds += r.MeasuredS
	}
	return st
}

// sourceDigest hashes the Go sources under root, so a result names the
// code it measured even in a checkout that is not a git repository.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report prints the human-readable lines and the final JSON line.
func report(w workload, p params, rs reps, stdout io.Writer) bool {
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	st := newStamp(w, p, rs)
	sb, _ := json.Marshal(st)
	fmt.Fprintf(out, "stamp %s\n", sb)
	for _, note := range steadinessNotes {
		fmt.Fprintf(out, "control %s\n", note)
	}

	res := result{Metrics: map[string]value{}}
	checks := map[string][2]int{} // name -> passed, failed
	var order []string
	addCheck := func(name string, ok bool) {
		if _, seen := checks[name]; !seen {
			order = append(order, name)
		}
		c := checks[name]
		if ok {
			c[0]++
		} else {
			c[1]++
		}
		checks[name] = c
	}
	for _, err := range rs.errs {
		fmt.Fprintf(out, "error %v\n", err)
		res.Attempted++
		res.Failed++
	}
	n := len(rs.results)
	for _, r := range rs.results {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, c := range r.Checks {
			addCheck(c.Name, c.OK)
			if !c.OK {
				fmt.Fprintf(out, "check-failed %s: %s\n", c.Name, c.Detail)
			}
		}
	}
	if n > 0 {
		same := true
		for _, r := range rs.results {
			same = same && math.Float64bits(r.FinalLoss) == math.Float64bits(rs.results[0].FinalLoss)
		}
		addCheck("repeated runs give an identical final_loss", same)
		res.Attempted++
		if !same {
			res.Failed++
		}
	}
	var failedChecks int
	for _, name := range order {
		c := checks[name]
		failedChecks += c[1]
		fmt.Fprintf(out, "check %-60s passed %d failed %d\n", name, c[0], c[1])
	}
	fmt.Fprintf(out, "failed_ratio %.6g (%d failed of %d attempted)\n",
		ratio(res.Failed, res.Attempted), res.Failed, res.Attempted)

	ok := n >= minReps && len(rs.errs) == 0 && failedChecks == 0
	if n > 0 && !p.trace {
		var pooled, setup, rate, rss []float64
		for _, r := range rs.results {
			pooled = append(pooled, r.OpMs...)
			setup = append(setup, r.SetupS)
			rate = append(rate, r.opsPerS())
			rss = append(rss, r.RSSMB)
		}
		tails := blockTails(pooled)
		ok = ok && len(tails) > 0
		vals := map[string]float64{
			"setup_s": median(setup), "ops_per_s": median(rate),
			"op_p50_ms": median(pooled), "op_tail_ms": median(tails),
			"final_loss": rs.results[0].FinalLoss, "max_rss_mb": median(rss),
		}
		notes := map[string]string{
			"setup_s":   fmt.Sprintf("median of %d fresh-process set-ups", n),
			"ops_per_s": fmt.Sprintf("median of %d repetitions; op = %s", n, w.op),
			"op_p50_ms": fmt.Sprintf("n=%d ops pooled over %d repetitions", len(pooled), n),
			"op_tail_ms": fmt.Sprintf("p%d: median over %d blocks of %d consecutive ops of the highest percentile with %d ops beyond it",
				100-100*tailBeyond/tailBlock, len(tails), tailBlock, tailBeyond),
			"final_loss": fmt.Sprintf("identical in all %d repetitions is a check", n),
			"max_rss_mb": fmt.Sprintf("median of %d repetitions, peak at the end of the timed window", n),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{vals[m.name], m.unit}
			fmt.Fprintf(out, "metric %-22s %14.6g %-5s (%s)\n", m.name, vals[m.name], m.unit, notes[m.name])
		}
	}
	if n > 0 && p.trace {
		for _, m := range perLayer {
			var v []float64
			for _, r := range rs.results {
				v = append(v, r.Layers[m.name])
			}
			res.Metrics[m.name] = value{median(v), m.unit}
			fmt.Fprintf(out, "metric %-30s %14.6g %-5s (median of %d traced repetitions)\n", m.name, median(v), m.unit, n)
		}
	}
	res.Correct = ok
	if !ok {
		fmt.Fprintln(out, "result incorrect: see the error and check-failed lines above")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return false
	}
	out.Write(b)
	out.WriteByte('\n')
	return ok
}

// The tail is taken in blocks of tailBlock consecutive ops: in each, the
// highest percentile with tailBeyond ops beyond it, and the median over
// blocks is reported. Over a whole repetition the same rule lands on p97
// to p99.6, whose value on a shared two-core host swings by a third
// between runs of identical code; in blocks of 100 it is p90, which
// moves no more than the median does.
const (
	tailBlock  = 100
	tailBeyond = 10
)

func blockTails(ops []float64) []float64 {
	var tails []float64
	for i := 0; i+tailBlock <= len(ops); i += tailBlock {
		b := append([]float64(nil), ops[i:i+tailBlock]...)
		sort.Float64s(b)
		tails = append(tails, b[tailBlock-tailBeyond-1])
	}
	return tails
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// steadinessNotes record each control that keeps the figures steady and
// why; they are printed with every result.
var steadinessNotes = []string{
	"fresh-process-per-repetition: each repetition is a child process, so heaps, pools and peak RSS start clean and max_rss_mb is per repetition",
	"warm-up-excluded: the first rounds (fig2: the first 50-round period of each run; krum: 5; cluster: 20) fill the pools before timing",
	"gc-before-window: runtime.GC runs at the end of the warm-up, outside the timed window",
	"no-sub-ms-percentiles: percentiles are taken over ops of at least 1 ms (fig2 ops are 50-round periods): a 0.13 ms round p50 moved 11% on identical code",
	"one-name-per-quantity: throughput is ops_per_s only; rounds_per_s, runs_per_s and events_per_s were one count under three names",
	"medians-over-repetitions: setup_s is the median of at least 3 fresh set-ups; a single 6 ms set-up moved 7.6% on identical code",
	"tails-in-blocks: op_tail_ms is p90 within blocks of 100 ops, median over blocks; over a whole repetition the tail swung by a third between runs of identical code",
	"stamped: host, Go version, commit, GOMAXPROCS and seed are in the stamp line of every result",
}

// writeSpans keeps the traced run's spans for inspection.
func writeSpans(rec *Recorder, p params, kind string) error {
	dir := filepath.Join(p.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.tsv", p.workload, p.seed, kind))
	if err := rec.WriteSpans(path); err != nil {
		return errors.Join(fmt.Errorf("write spans: %w", err), os.Remove(path))
	}
	return nil
}
