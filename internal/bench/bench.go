// Package bench regenerates the paper's evaluation: Tables 3-8 and
// Figures 11-13. Each experiment builds the 17 workloads under the
// relevant switch heuristic set, measures baseline and reordered
// executables on the test inputs, and renders rows shaped like the
// paper's.
//
// Build+measure jobs run through Engine: a bounded worker pool with a
// per-(workload, options) memo cache, so every table, figure and the
// ablation study share one set of builds, results aggregate in roster
// order regardless of completion order, and the first failure cancels
// the rest.
package bench

import (
	"context"
	"fmt"
	"io"

	"branchreorder/internal/bench/store"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/profile"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

// TrainInput returns the input a build under opts trains on: the
// workload's training input normally, or the test input itself when the
// profile configuration asks for no train/test drift — the profile
// study's "how good could a perfectly fresh profile be" arm.
func TrainInput(w workload.Workload, opts pipeline.Options) []byte {
	if opts.Profile.Drift == profile.DriftNone {
		return w.Test()
	}
	return w.Train()
}

// SeqStat is one sequence's outcome in serializable form; see
// store.SeqStat.
type SeqStat = store.SeqStat

// ProgramRun is one workload built under one configuration and measured
// on its test input. Everything the tables and figures consume lives in
// the measurement and summary fields, so a run round-trips through the
// disk store and shard exports; Build carries the compiled programs only
// for runs produced in this process.
type ProgramRun struct {
	Workload workload.Workload
	Set      lower.HeuristicSet
	Opts     pipeline.Options
	// Build is nil for runs loaded from the disk store or a merged
	// shard: the compiled programs are not persisted.
	Build *pipeline.BuildResult
	Base  *sim.Measurement
	Reord *sim.Measurement

	StaticBase  int64
	StaticReord int64

	// Seqs records every detected sequence's outcome in detection order.
	Seqs []SeqStat
}

// PctChange returns 100*(after/before - 1).
func PctChange(before, after uint64) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (float64(after)/float64(before) - 1)
}

// runStaged builds and measures one workload under a full pipeline
// configuration (ablation variants and the Section 10 extension
// included) through the engine's stage cache: the frontend and training
// stages are shared with every other build of the same configuration,
// and only the finalize stage runs per variant.
func (e *Engine) runStaged(w workload.Workload, opts pipeline.Options) (*ProgramRun, error) {
	b, err := e.stages.Build(w.Source, TrainInput(w, opts), opts)
	if err != nil {
		return nil, fmt.Errorf("%s (set %v): %w", w.Name, opts.Switch, err)
	}
	return e.measureBuild(w, opts, b)
}

// measureBuild runs both executables of a finished build on the test
// input and assembles the ProgramRun every table and figure consumes.
// The baseline measurement comes from the engine's baseline memo.
func (e *Engine) measureBuild(w workload.Workload, opts pipeline.Options, b *pipeline.BuildResult) (*ProgramRun, error) {
	set := opts.Switch
	test := w.Test()
	base, err := e.baseline(b, test)
	if err != nil {
		return nil, fmt.Errorf("%s (set %v) baseline: %w", w.Name, set, err)
	}
	reord, err := sim.Run(b.Reordered, test, nil)
	e.mu.Lock()
	e.stats.Sims++
	e.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("%s (set %v) reordered: %w", w.Name, set, err)
	}
	if base.Output != reord.Output || base.Ret != reord.Ret {
		return nil, fmt.Errorf("%s (set %v): reordered output differs from baseline", w.Name, set)
	}
	const ijmpInsts = 3
	seqs := make([]SeqStat, len(b.Results))
	for i, res := range b.Results {
		seqs[i] = SeqStat{
			Applied:      res.Applied,
			OrigBranches: res.OrigBranches,
			NewBranches:  res.NewBranches,
			Default:      -1,
		}
		// The selected ordering is only meaningful for applied
		// sequences; a skipped one would record the zero Ordering,
		// whose default target of 0 reads as a real arm.
		if res.Applied {
			seqs[i].Order = append([]int(nil), res.Ordering.Explicit...)
			seqs[i].Omitted = append([]int(nil), res.Ordering.Omitted...)
			seqs[i].Default = res.Ordering.DefaultTarget
		}
	}
	return &ProgramRun{
		Workload:    w,
		Set:         set,
		Opts:        opts,
		Build:       b,
		Base:        base,
		Reord:       reord,
		StaticBase:  pipeline.StaticInsts(b.Baseline, ijmpInsts),
		StaticReord: pipeline.StaticInsts(b.Reordered, ijmpInsts),
		Seqs:        seqs,
	}, nil
}

// Suite holds every (heuristic set × workload) run; tables and figures
// are derived from it without re-running anything.
type Suite struct {
	Runs map[lower.HeuristicSet][]*ProgramRun
}

// AllRuns returns every run of the suite in deterministic matrix order
// (heuristic sets in presentation order, workloads in roster order) —
// the same order SuiteJobs enumerates.
func (s *Suite) AllRuns() []*ProgramRun {
	var out []*ProgramRun
	for _, set := range Sets() {
		out = append(out, s.Runs[set]...)
	}
	return out
}

// Sets lists the heuristic sets in presentation order.
func Sets() []lower.HeuristicSet {
	return []lower.HeuristicSet{lower.SetI, lower.SetII, lower.SetIII}
}

// RunSuite executes the full evaluation on a GOMAXPROCS-wide worker pool
// (use NewEngine directly to pick the parallelism or share the cache with
// other experiments). Progress lines go to progress when non-nil.
func RunSuite(progress io.Writer) (*Suite, error) {
	return NewEngine(0, progress).Suite(context.Background())
}

// TotalSeqs reports how many reorderable sequences were detected.
func (r *ProgramRun) TotalSeqs() int { return len(r.Seqs) }

// ReorderedSeqs reports how many sequences were actually reordered.
func (r *ProgramRun) ReorderedSeqs() int {
	n := 0
	for _, s := range r.Seqs {
		if s.Applied {
			n++
		}
	}
	return n
}

// AppliedSeqs returns the stats of the sequences that were reordered.
func (r *ProgramRun) AppliedSeqs() []SeqStat {
	var out []SeqStat
	for _, s := range r.Seqs {
		if s.Applied {
			out = append(out, s)
		}
	}
	return out
}

// Record converts the run to its serializable form for the disk store,
// shard exports, and the -json dump.
func (r *ProgramRun) Record() *store.Record {
	return &store.Record{
		Workload:    r.Workload.Name,
		Set:         int(r.Set),
		Opts:        r.Opts,
		Base:        store.FromSim(r.Base),
		Reord:       store.FromSim(r.Reord),
		StaticBase:  r.StaticBase,
		StaticReord: r.StaticReord,
		Seqs:        append([]SeqStat(nil), r.Seqs...),
	}
}

// RunFromRecord reconstitutes a run for workload w from its serialized
// form. Build is nil; every measurement and summary a table or figure
// consumes is restored exactly.
func RunFromRecord(rec *store.Record, w workload.Workload) (*ProgramRun, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	if rec.Workload != w.Name {
		return nil, fmt.Errorf("bench: record is for workload %q, not %q", rec.Workload, w.Name)
	}
	return &ProgramRun{
		Workload:    w,
		Set:         lower.HeuristicSet(rec.Set),
		Opts:        rec.Opts,
		Base:        rec.Base.Sim(),
		Reord:       rec.Reord.Sim(),
		StaticBase:  rec.StaticBase,
		StaticReord: rec.StaticReord,
		Seqs:        append([]SeqStat(nil), rec.Seqs...),
	}, nil
}

// Records converts runs to their serializable form, preserving order.
func Records(runs []*ProgramRun) []*store.Record {
	out := make([]*store.Record, len(runs))
	for i, r := range runs {
		out[i] = r.Record()
	}
	return out
}
