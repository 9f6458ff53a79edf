package pipeline

import (
	"branchreorder/internal/core"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
)

// BuildResult carries both executables of the paper's comparison plus the
// per-sequence decisions.
type BuildResult struct {
	// Baseline has all conventional optimizations applied and no
	// reordering — the "Original" measurements of Tables 4-8. It is the
	// frontend product's program itself, shared with every other build
	// of the same frontend, so it is read-only: clone it before
	// mutating, as with FrontendProduct.Prog.
	Baseline *ir.Program
	// FrontendKey is the content address of the frontend product
	// Baseline belongs to: builds with equal keys share one Baseline,
	// so one measurement of it on an input serves them all. Set by
	// StageCache.Build; empty from an uncached Build.
	FrontendKey string
	// Reordered additionally has the branch-reordering transformation
	// applied, trained on the training input.
	Reordered *ir.Program

	Sequences []*core.Sequence
	Results   []core.Result
	Profile   *core.Profile

	// Section 10 extension (Options.CommonSuccessor): sequences of
	// branches with a common successor, and what happened to them.
	OrSequences []*core.OrSequence
	OrResults   []core.OrResult
	OrProfile   *core.OrProfile

	SwitchKinds map[lower.SwitchKind]int
}

// TotalSeqs reports how many reorderable sequences were detected.
func (r *BuildResult) TotalSeqs() int { return len(r.Sequences) }

// ReorderedSeqs reports how many sequences were actually reordered.
func (r *BuildResult) ReorderedSeqs() int {
	n := 0
	for _, res := range r.Results {
		if res.Applied {
			n++
		}
	}
	return n
}

// Build runs the full two-pass scheme of Figure 2 in one process by
// composing the three stages without a cache: compile with conventional
// optimizations, detect and train, then select orderings, apply the
// transformation and clean up.
func Build(src string, train []byte, o Options) (*BuildResult, error) {
	front, err := BuildFrontend(src, o.Frontend())
	if err != nil {
		return nil, err
	}
	tp, err := TrainStage(front, train, o.Detection())
	if err != nil {
		return nil, err
	}
	return FinalizeStages(front, tp, o)
}
