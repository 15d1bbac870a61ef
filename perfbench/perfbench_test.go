package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dpbyz/internal/attack"
	"dpbyz/internal/gar"
	"dpbyz/internal/model"
	"dpbyz/internal/randx"
)

// Every workload runs at a tiny size, traced and untraced, at the default
// and the held-out seed, passes its checks and prints every metric the
// benchmark declares, with its unit, on a final JSON line.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			for _, traced := range []bool{false, true} {
				p := params{workload: w.name, seed: seed, trace: traced, tiny: true, out: t.TempDir()}
				rs := collect(p, 0, w.run)
				if len(rs.errs) > 0 {
					t.Fatalf("%s seed %d trace %v: %v", w.name, seed, traced, rs.errs)
				}
				var out bytes.Buffer
				if !report(w, p, rs, &out) {
					t.Fatalf("%s seed %d trace %v: report not correct:\n%s", w.name, seed, traced, out.String())
				}
				checkFinalLine(t, w.name, traced, out.String())
				if traced {
					for _, r := range rs.results {
						checkPartition(t, w.name, r.Layers)
					}
				}
			}
		}
	}
}

func checkFinalLine(t *testing.T, name string, traced bool, out string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", name, err)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
		t.Fatalf("%s trace %v: result %+v", name, traced, res)
	}
	for _, m := range want {
		var v value
		if err := json.Unmarshal(res.Metrics[m.name], &v); err != nil || v.Unit != m.unit {
			t.Errorf("%s: metric %s = %s, want unit %q", name, m.name, res.Metrics[m.name], m.unit)
		}
		if !traced && !(v.Value > 0) {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, v.Value)
		}
	}
}

// checkPartition asserts that the traced self times plus the residual add
// up to the round, and the fleet phases to the run.
func checkPartition(t *testing.T, name string, l map[string]float64) {
	t.Helper()
	parts := localParts
	if name == "cluster-avg-d1e4" {
		parts = clusterParts
	}
	if !addsUp(l, parts, "trace.round_ms") || l["trace.residual_min_ms"] < 0 {
		t.Errorf("%s: %v do not partition trace.round_ms: %v", name, parts, l)
	}
	if name == "fig2-alie-dp" && !addsUp(l, fleetParts, "trace.run_ms") {
		t.Errorf("%s: %v do not partition trace.run_ms: %v", name, fleetParts, l)
	}
}

// BENCHMARK.json declares the same workloads and metrics as the code.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, code has %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if c := endToEnd[i]; m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("end-to-end %d: declared %+v, code %+v", i, m, c)
		}
	}
	for i, m := range spec.PerLayer {
		if c := perLayer[i]; m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per-layer %d: declared %+v, code %+v", i, m, c)
		}
	}
}

// Each decorator has exactly the optional interfaces the program
// type-asserts that its wrapped value has: a missing one would silently
// switch the program to a slower path.
func TestDecoratorsKeepOptionalInterfaces(t *testing.T) {
	lane := NewRecorder().NewLane("test")

	var models []model.Model
	for _, mk := range []func() (model.Model, error){
		func() (model.Model, error) { return model.NewLogisticMSE(3) },
		func() (model.Model, error) { return model.NewLogisticNLL(3) },
		func() (model.Model, error) { return model.NewLinearRegression(3) },
		func() (model.Model, error) { return model.NewMeanEstimation(3) },
		func() (model.Model, error) { return model.NewMLP(3, 4) },
	} {
		m, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	models = append(models, bareModel{models[0]}, predictorOnly{models[0]})
	for _, m := range models {
		w := wrapModel(m, lane)
		_, bg := m.(model.BatchGradienter)
		_, wbg := w.(model.BatchGradienter)
		_, pr := m.(model.Predictor)
		_, wpr := w.(model.Predictor)
		if bg != wbg || pr != wpr {
			t.Errorf("model %T: BatchGradienter %v->%v, Predictor %v->%v", m, bg, wbg, pr, wpr)
		}
	}

	var rules []gar.GAR
	for _, name := range gar.Names() {
		g, err := gar.New(name, 15, 3)
		if err != nil {
			t.Fatalf("gar %s: %v", name, err)
		}
		rules = append(rules, g)
	}
	inc, err := gar.NewSketched("krum", 15, 3, gar.SketchOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	rules = append(rules, inc, bareGAR{rules[0]}, roundOnly{inc})
	for _, g := range rules {
		w := wrapGAR(g, lane)
		_, into := g.(gar.IntoAggregator)
		_, winto := w.(gar.IntoAggregator)
		_, ra := g.(gar.RoundAware)
		_, wra := w.(gar.RoundAware)
		if into != winto || ra != wra {
			t.Errorf("gar %T: IntoAggregator %v->%v, RoundAware %v->%v", g, into, winto, ra, wra)
		}
	}

	var attacks []attack.Attack
	for _, name := range attack.Names() {
		a, err := attack.New(name)
		if err != nil {
			t.Fatal(err)
		}
		attacks = append(attacks, a, attack.Adapt(a))
	}
	attacks = append(attacks, gaAttack{attacks[0]}, gaAdaptive{attack.Adapt(attacks[0])})
	for _, a := range attacks {
		w := wrapAttack(a, lane)
		_, ga := a.(attack.GARAware)
		_, wga := w.(attack.GARAware)
		_, ad := a.(attack.AdaptiveAttack)
		_, wad := w.(attack.AdaptiveAttack)
		if ga != wga || ad != wad {
			t.Errorf("attack %T: GARAware %v->%v, AdaptiveAttack %v->%v", a, ga, wga, ad, wad)
		}
	}
}

// A GAR-aware attack armed with a traced rule on its own lane records the
// rule's calls as children of its craft span, and the craft's self time
// excludes them.
func TestNestedSpans(t *testing.T) {
	rec := NewRecorder()
	lane := rec.NewLane("test")
	var ga attack.Attack
	for _, name := range attack.Names() {
		a, err := attack.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := a.(attack.GARAware); ok {
			ga = a
			break
		}
	}
	if ga == nil {
		t.Skip("no GAR-aware attack registered")
	}
	g, err := gar.New("median", 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := wrapAttack(ga, lane)
	a.(attack.GARAware).SetGAR(wrapGAR(g, lane))
	rng := randx.New(1)
	honest := make([][]float64, 5)
	for i := range honest {
		honest[i] = make([]float64, 4)
		rng.NormalVec(honest[i], 1)
	}
	if _, err := a.Craft(honest, rng); err != nil {
		t.Fatal(err)
	}
	if len(lane.spans) < 2 || lane.spans[0].kind != kCraft {
		t.Fatalf("spans %+v, want a craft span with gar children", lane.spans)
	}
	self := lane.selfTimes()
	var children int64
	for _, s := range lane.spans[1:] {
		if s.kind != kAggregate || s.parent != 0 {
			t.Fatalf("span %+v is not a gar child of the craft span", s)
		}
		children += s.end - s.start
	}
	if c := lane.spans[0]; self[0] != c.end-c.start-children {
		t.Errorf("craft self %d, want duration %d less children %d", self[0], c.end-c.start, children)
	}
}

func TestBlockTails(t *testing.T) {
	v := make([]float64, 250)
	for i := range v {
		v[i] = float64(i % tailBlock)
	}
	got := blockTails(v)
	if len(got) != 2 || got[0] != 89 || got[1] != 89 {
		t.Errorf("blockTails = %v, want [89 89]: two full blocks, p90 of each", got)
	}
}

// Fakes that lack the optional interfaces, so every wrap branch is hit.
type bareModel struct{ model.Model }
type predictorOnly struct{ model.Model }

func (p predictorOnly) Predict(w, x []float64) float64 { return 0 }

type bareGAR struct{ gar.GAR }
type roundOnly struct{ gar.GAR }

func (roundOnly) BeginRound(int) {}

type gaAttack struct{ attack.Attack }

func (gaAttack) SetGAR(gar.GAR) {}

type gaAdaptive struct{ attack.AdaptiveAttack }

func (gaAdaptive) SetGAR(gar.GAR) {}
