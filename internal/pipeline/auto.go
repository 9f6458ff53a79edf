package pipeline

import (
	"fmt"
	"sync"

	"branchreorder/internal/interp"
	"branchreorder/internal/lower"
)

// Profile-guided selection of the multiway search method: the paper's
// Section 9/10 observation that "profile information should be used to
// decide if an indirect jump should be generated or branch reordering
// should instead be applied". AutoBuild compiles the program under every
// switch-translation heuristic set, reorders each candidate using the
// training input, evaluates the trained executables on that same training
// input, and returns the cheapest — a semi-static search-method choice
// driven by the same profile data the reordering uses.

// AutoResult is the outcome of profile-guided method selection.
type AutoResult struct {
	// Chosen is the winning build; Set is its heuristic set.
	Chosen *BuildResult
	Set    lower.HeuristicSet

	// TrainInsts records each candidate's dynamic instruction count on
	// the training input (reordered executable).
	TrainInsts map[lower.HeuristicSet]uint64
}

// AutoBuild picks the switch translation method by profile. The three
// candidates build and evaluate concurrently on a private stage cache;
// use AutoBuildWith to share stages with other builds (an engine that
// already compiled some sets reuses their frontends and training runs).
func AutoBuild(src string, train []byte, base Options) (*AutoResult, error) {
	return AutoBuildWith(nil, src, train, base)
}

// AutoBuildWith is AutoBuild on an explicit stage cache (nil means a
// fresh private one). Candidates run concurrently; the winner is chosen
// deterministically — lowest training cost, ties broken by set order —
// so the result never depends on scheduling.
func AutoBuildWith(cache *StageCache, src string, train []byte, base Options) (*AutoResult, error) {
	if cache == nil {
		cache = NewStageCache()
	}
	sets := []lower.HeuristicSet{lower.SetI, lower.SetII, lower.SetIII}
	type candidate struct {
		build *BuildResult
		insts uint64
		err   error
	}
	cands := make([]candidate, len(sets))
	var wg sync.WaitGroup
	for i, set := range sets {
		wg.Add(1)
		go func(i int, set lower.HeuristicSet) {
			defer wg.Done()
			o := base
			o.Switch = set
			b, err := cache.Build(src, train, o)
			if err != nil {
				cands[i].err = fmt.Errorf("auto build (set %v): %w", set, err)
				return
			}
			_, st, _, err := interp.Exec(interp.EngineFast, b.Reordered, nil, train, nil, nil)
			if err != nil {
				cands[i].err = fmt.Errorf("auto evaluation (set %v): %w", set, err)
				return
			}
			cands[i] = candidate{build: b, insts: st.Insts}
		}(i, set)
	}
	wg.Wait()

	res := &AutoResult{TrainInsts: map[lower.HeuristicSet]uint64{}}
	var bestCost uint64
	for i, set := range sets {
		if cands[i].err != nil {
			return nil, cands[i].err
		}
		res.TrainInsts[set] = cands[i].insts
		if res.Chosen == nil || cands[i].insts < bestCost {
			res.Chosen = cands[i].build
			res.Set = set
			bestCost = cands[i].insts
		}
	}
	return res, nil
}
