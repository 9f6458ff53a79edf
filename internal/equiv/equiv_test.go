package equiv

import (
	"testing"

	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/predictor"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

// referenceMeasure replicates the pre-rewrite measurement loop exactly:
// the block-walking interpreter with every executed branch fanned out to
// the 14 Table-6 Bimodal predictors.
type measurement struct {
	stats       interp.Stats
	output      string
	ret         int64
	mispredicts map[string]uint64
}

func referenceMeasure(t *testing.T, prog *ir.Program, input []byte) *measurement {
	t.Helper()
	preds := sim.PredictorSweep()
	m := &interp.Machine{
		Prog:  prog,
		Input: input,
		OnBranch: func(id int, taken bool) {
			for _, p := range preds {
				p.Observe(id, taken)
			}
		},
	}
	ret, err := m.Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	out := &measurement{
		stats:       m.Stats,
		output:      m.Output.String(),
		ret:         ret,
		mispredicts: make(map[string]uint64, len(preds)),
	}
	for _, p := range preds {
		out.mispredicts[p.Name()] = p.Mispredicts
	}
	return out
}

func checkMeasurement(t *testing.T, label string, prog *ir.Program, input []byte) {
	t.Helper()
	want := referenceMeasure(t, prog, input)
	got, err := sim.Run(prog, input, nil)
	if err != nil {
		t.Fatalf("%s: sim.Run: %v", label, err)
	}
	if got.Ret != want.ret {
		t.Errorf("%s: ret fast=%d ref=%d", label, got.Ret, want.ret)
	}
	if got.Output != want.output {
		t.Errorf("%s: output diverged (%d vs %d bytes)", label, len(got.Output), len(want.output))
	}
	if got.Stats != want.stats {
		t.Errorf("%s: stats\nfast: %+v\nref:  %+v", label, got.Stats, want.stats)
	}
	if len(got.Mispredicts) != len(want.mispredicts) {
		t.Fatalf("%s: %d predictor configs, want %d", label, len(got.Mispredicts), len(want.mispredicts))
	}
	for name, w := range want.mispredicts {
		if got.Mispredicts[name] != w {
			t.Errorf("%s: %s mispredicts fast=%d ref=%d", label, name, got.Mispredicts[name], w)
		}
	}

	// The unfused decode must reproduce the fused measurement exactly:
	// superinstruction fusion changes dispatch, never results.
	unfused, err := sim.RunWith(prog, input, nil, sim.Options{NoFuse: true})
	if err != nil {
		t.Fatalf("%s/nofuse: sim.RunWith: %v", label, err)
	}
	if unfused.Ret != got.Ret || unfused.Output != got.Output {
		t.Errorf("%s/nofuse: result diverged from the fused run", label)
	}
	if unfused.Stats != got.Stats {
		t.Errorf("%s/nofuse: stats\nunfused: %+v\nfused:   %+v", label, unfused.Stats, got.Stats)
	}
	if len(unfused.Mispredicts) != len(got.Mispredicts) {
		t.Fatalf("%s/nofuse: %d predictor configs, want %d", label, len(unfused.Mispredicts), len(got.Mispredicts))
	}
	for name, w := range got.Mispredicts {
		if unfused.Mispredicts[name] != w {
			t.Errorf("%s/nofuse: %s mispredicts unfused=%d fused=%d", label, name, unfused.Mispredicts[name], w)
		}
	}
}

// TestWorkloadSuiteEquivalence measures every workload's baseline and
// reordered executables through sim.Run (fast engine + predictor bank)
// and through a replica of the old Machine+Bimodal loop, demanding
// identical Stats, Output, Ret and per-predictor Mispredicts.
func TestWorkloadSuiteEquivalence(t *testing.T) {
	all := workload.All()
	if testing.Short() {
		all = all[:4]
	}
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			opts := pipeline.Options{Switch: lower.SetII, Optimize: true}
			front, err := pipeline.Frontend(w.Source, opts)
			if err != nil {
				t.Fatal(err)
			}
			build, err := pipeline.Build(w.Source, w.Train(), opts)
			if err != nil {
				t.Fatal(err)
			}
			inputs := map[string][]byte{
				"test": w.Test(),
				"fuzz": workload.FuzzInput(uint64(len(w.Name))*77+13, 3000),
			}
			for tag, input := range inputs {
				checkMeasurement(t, w.Name+"/base/"+tag, front.Prog, input)
				checkMeasurement(t, w.Name+"/reord/"+tag, build.Reordered, input)
			}
		})
	}
}

// TestBankAgainstBimodalsOnRealStreams replays a real workload's branch
// stream into the vectorized bank and the individual predictors.
func TestBankAgainstBimodalsOnRealStreams(t *testing.T) {
	w, ok := workload.Named("grep")
	if !ok {
		t.Fatal("grep workload missing")
	}
	front, err := pipeline.Frontend(w.Source, pipeline.Options{Switch: lower.SetI, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	code, err := interp.Decode(front.Prog)
	if err != nil {
		t.Fatal(err)
	}
	bank := predictor.NewTable6Bank()
	preds := sim.PredictorSweep()
	m := &interp.FastMachine{Code: code, Input: w.Test(),
		OnBranch: func(id int, taken bool) {
			bank.Observe(id, taken)
			for _, p := range preds {
				p.Observe(id, taken)
			}
		}}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i, p := range preds {
		if bank.MispredictsOf(i) != p.Mispredicts {
			t.Errorf("%s: bank %d mispredicts, bimodal %d",
				p.Name(), bank.MispredictsOf(i), p.Mispredicts)
		}
	}
	if bank.Branches == 0 {
		t.Error("no branches observed")
	}
}
