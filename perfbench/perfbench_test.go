package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"branchreorder/internal/bench"
	"branchreorder/internal/bench/loadgen"
	"branchreorder/internal/bench/store"
)

// binDir holds brbench and brstored built from the checkout for the
// tests that run them.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin-")
	if err != nil {
		panic(err)
	}
	for _, cmd := range []string{"brbench", "brstored"} {
		build := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "branchreorder/cmd/"+cmd)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			panic(err)
		}
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testConfig(t *testing.T, workload string) config {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return config{root: root, bin: binDir, workload: workload, seed: 7, seconds: 2, trace: true}
}

func declaredUnits(t *testing.T) (*declared, map[string]string) {
	d, err := loadDeclared(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(append([]declaredMetric(nil), d.EndToEnd...), d.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return d, units
}

// TestLayerMapMatchesDeclaration checks layers.json against
// BENCHMARK.json: every per-layer metric is mapped exactly once, every
// end-to-end metric has a meaning on every workload, and the map names
// only declared metrics and workloads.
func TestLayerMapMatchesDeclaration(t *testing.T) {
	d, _ := declaredUnits(t)
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm struct {
		EndToEnd map[string]map[string]string `json:"end_to_end"`
		PerLayer []struct {
			Metrics   []string            `json:"metrics"`
			Moves     map[string][]string `json:"moves"`
			Unchanged []string            `json:"unchanged"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &lm); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = true
	}
	for name := range e2e {
		for _, w := range d.Workloads {
			if lm.EndToEnd[name][w.Name] == "" {
				t.Errorf("layers.json: %s has no meaning on %s", name, w.Name)
			}
		}
	}
	mapped := map[string]int{}
	for _, row := range lm.PerLayer {
		for _, m := range row.Metrics {
			mapped[m]++
		}
		for metric, ws := range row.Moves {
			if !e2e[metric] {
				t.Errorf("layers.json: %v moves undeclared metric %s", row.Metrics, metric)
			}
			for _, w := range append(ws, row.Unchanged...) {
				if !d.hasWorkload(w) {
					t.Errorf("layers.json: %v names unknown workload %s", row.Metrics, w)
				}
			}
		}
	}
	for _, m := range d.PerLayer {
		if mapped[m.Name] != 1 {
			t.Errorf("layers.json maps %s %d times, want 1", m.Name, mapped[m.Name])
		}
		delete(mapped, m.Name)
	}
	for m := range mapped {
		t.Errorf("layers.json maps undeclared metric %s", m)
	}
}

// TestComposedRunsMatchBrbench checks that the traced run's composition
// of layer calls does the same work as brbench: its records — Stats,
// Mispredicts, Cycles and output of both executables — equal the ones
// `brbench -json` (suite) and `brbench -ablation -export` (grid) write,
// and every output equals the reference interpreter's.
func TestComposedRunsMatchBrbench(t *testing.T) {
	for _, tc := range []struct {
		workload string
		flags    []string
	}{
		{paperSuite, []string{"-json"}},
		{ablationGrid, []string{"-ablation", "-export"}},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			file := filepath.Join(t.TempDir(), "records.json")
			r := runProcess(filepath.Join(binDir, "brbench"), append(tc.flags, file)...)
			if r.err != nil {
				t.Fatal(r.err)
			}
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := store.ReadExport(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			out := &outcome{}
			c, pass, err := composePass(tc.workload, nil, out)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed > 0 {
				t.Errorf("%d of %d reference checks failed", out.failed, out.attempted)
			}
			// The redundancies the ROADMAP names show as counts before
			// anyone removes them: most of the bank's tables agree, and
			// the grid re-measures baselines it has measured already.
			k := c.counts
			if k.distinctMispredicts >= 14*k.measureCalls {
				t.Errorf("predictor bank useful ratio is 1")
			}
			if tc.workload == ablationGrid && k.distinctMeasured >= k.measureCalls {
				t.Errorf("every measurement was distinct")
			}
			got := bench.Records(pass.runs)
			if len(got) != len(want) {
				t.Fatalf("composed %d records, brbench wrote %d", len(got), len(want))
			}
			for i := range got {
				g, _ := json.Marshal(got[i])
				w, _ := json.Marshal(want[i])
				if !bytes.Equal(g, w) {
					t.Errorf("record %d (%s, set %d) differs:\ncomposed %s\nbrbench  %s", i, want[i].Workload, want[i].Set, g, w)
				}
			}
		})
	}
}

// TestTracedCountsRepeat runs every workload's traced run twice and
// requires every count metric to come out identical, and every check to
// pass.
func TestTracedCountsRepeat(t *testing.T) {
	d, units := declaredUnits(t)
	for _, w := range d.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := testConfig(t, w.Name)
			prov := collectProvenance(cfg)
			traced := traceCompile
			if w.Name == storeMixed {
				traced = traceStore
			}
			var runs [2]*outcome
			for i := range runs {
				out, err := traced(cfg, prov)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed > 0 {
					t.Fatalf("%d of %d checks failed", out.failed, out.attempted)
				}
				if _, err := resultLine(out, d.PerLayer); err != nil {
					t.Fatal(err)
				}
				runs[i] = out
			}
			// GC cycles are not work done: the collector's pacing
			// depends on timing, so they are the one count left out.
			var names []string
			for name, unit := range units {
				if unit == "count" && name != "runtime.gc_cycles" {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			for _, name := range names {
				if a, b := runs[0].metrics[name], runs[1].metrics[name]; a != b {
					t.Errorf("%s: %v then %v", name, a, b)
				}
			}
		})
	}
}

// TestPlanCarriesTheMix checks that a store-mixed plan holds the same
// work whatever the seed: the mix exactly, the miss share, every hot and
// every cold entry read equally often, and so every size class too.
func TestPlanCarriesTheMix(t *testing.T) {
	recs := make(records, 51)
	n := storeMix.Total() / mixUnit * population
	var first map[loadgen.OpKind]int
	for seed := uint64(1); seed <= 3; seed++ {
		p := newPlan(seed, 2, n, recs)
		kinds := map[loadgen.OpKind]int{}
		reads := map[uint64]int{}
		classReads := map[uint64]int{}
		misses := 0
		for _, op := range p.ops {
			kinds[op.Kind]++
			switch {
			case op.Kind != loadgen.OpGet:
			case op.Miss:
				misses++
			default:
				reads[op.Index]++
				classReads[classOf(op.Index)]++
			}
		}
		gets := kinds[loadgen.OpGet]
		if gets != n*storeMix.Get/storeMix.Total() || kinds[loadgen.OpPut] != n*storeMix.Put/storeMix.Total() {
			t.Errorf("seed %d: %v does not hold the mix %+v", seed, kinds, storeMix)
		}
		if first == nil {
			first = kinds
		} else if !maps.Equal(kinds, first) {
			t.Errorf("seed %d: %v, seed 1: %v", seed, kinds, first)
		}
		if misses != int(float64(gets)*missFrac) {
			t.Errorf("seed %d: %d misses of %d GETs", seed, misses, gets)
		}
		hits := gets - misses
		for i := uint64(0); i < population; i++ {
			want := int(float64(hits)*hotWeight) / hotSet
			if i >= hotSet {
				want = (hits - int(float64(hits)*hotWeight)) / (population - hotSet)
			}
			if d := reads[i] - want; d < -1 || d > 1 {
				t.Errorf("seed %d: entry %d read %d times, want %d", seed, i, reads[i], want)
			}
		}
		// Each class holds population/classes entries, each read within
		// one of its share.
		for c := uint64(0); c < classes; c++ {
			if d := classReads[c] - hits/classes; d < -population/classes || d > population/classes {
				t.Errorf("seed %d: size class %d read %d times, want %d", seed, c, classReads[c], hits/classes)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "job", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "a", Parent: 0, StartNs: 10, EndNs: 40},
		{Name: "b", Parent: 0, StartNs: 30, EndNs: 50},
		{Name: "c", Parent: 1, StartNs: 15, EndNs: 20},
	}}
	self := tr.selfTimes()
	for name, want := range map[string]int64{"job": 60, "a": 25, "b": 20, "c": 5} {
		if got := self[name].Nanoseconds(); got != want {
			t.Errorf("self(%s) = %d, want %d", name, got, want)
		}
	}
}
