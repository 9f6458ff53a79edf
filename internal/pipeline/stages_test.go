package pipeline

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"branchreorder/internal/core"
	"branchreorder/internal/lower"
	"branchreorder/internal/memo"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

// buildPair builds one configuration twice — through the shared cache
// and as a fresh, uncached Build — and fails unless the outputs are
// byte-identical and the cached frontend program is unchanged, so no
// consumer of a shared stage product ever mutates it. The cached
// build's Baseline is that shared program, so measuring it (sim.Run,
// StaticInsts) must leave it unchanged too.
func buildPair(t *testing.T, cache *StageCache, src string, train []byte, o Options) *BuildResult {
	t.Helper()
	front, err := cache.Frontend(src, o.Frontend())
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	frontDump := front.Prog.Dump()
	fresh, err := Build(src, train, o)
	if err != nil {
		t.Fatalf("fresh Build: %v", err)
	}
	staged, err := cache.Build(src, train, o)
	if err != nil {
		t.Fatalf("cached Build: %v", err)
	}
	if got, want := staged.Baseline.Dump(), fresh.Baseline.Dump(); got != want {
		t.Fatalf("cached baseline differs from fresh baseline\ncached:\n%s\nfresh:\n%s", got, want)
	}
	if got, want := staged.Reordered.Dump(), fresh.Reordered.Dump(); got != want {
		t.Fatalf("cached reordered program differs from fresh\ncached:\n%s\nfresh:\n%s", got, want)
	}
	if got, want := fmt.Sprintf("%+v", staged.Results), fmt.Sprintf("%+v", fresh.Results); got != want {
		t.Fatalf("cached results differ: %s vs %s", got, want)
	}
	if got, want := fmt.Sprintf("%+v", staged.OrResults), fmt.Sprintf("%+v", fresh.OrResults); got != want {
		t.Fatalf("cached or-results differ: %s vs %s", got, want)
	}
	if staged.Baseline != front.Prog {
		t.Fatal("cached build does not share the frontend program as its Baseline")
	}
	if _, err := sim.Run(staged.Baseline, train, nil); err != nil {
		t.Fatalf("measure baseline: %v", err)
	}
	StaticInsts(staged.Baseline, 3)
	if front.Prog.Dump() != frontDump {
		t.Fatal("building or measuring mutated the cached frontend program")
	}
	return staged
}

// A build through a warm shared cache must be byte-identical to a fresh,
// uncached Build (the "monolithic" side of the name) over the whole
// evaluation roster. Each workload runs under a
// rotating heuristic set so all three sets are exercised without
// tripling the build count; a Transform variant then reuses the cached
// frontend and training products.
func TestStagedBuildMatchesMonolithicRoster(t *testing.T) {
	sets := []lower.HeuristicSet{lower.SetI, lower.SetII, lower.SetIII}
	cache := NewStageCache()
	for i, w := range workload.All() {
		w, set := w, sets[i%len(sets)]
		t.Run(fmt.Sprintf("%s/set%v", w.Name, set), func(t *testing.T) {
			t.Parallel()
			o := Options{Switch: set, Optimize: true}
			buildPair(t, cache, w.Source, w.Train(), o)
			o.Transform = core.TransformOptions{NoTailDup: true}
			buildPair(t, cache, w.Source, w.Train(), o)
		})
	}
}

// Randomized TransformOptions (and the Section 10 extension) must stay
// byte-identical to a fresh Build too — every variant shares the cached
// stages, which is exactly where divergence or mutation would creep in.
func TestStagedBuildMatchesMonolithicRandomOptions(t *testing.T) {
	w, ok := workload.Named("wc")
	if !ok {
		t.Fatal("wc workload missing")
	}
	train := w.Train()
	rng := rand.New(rand.NewSource(7))
	cache := NewStageCache()
	for i := 0; i < 12; i++ {
		o := Options{
			Switch:          []lower.HeuristicSet{lower.SetI, lower.SetII, lower.SetIII}[rng.Intn(3)],
			Optimize:        true,
			CommonSuccessor: rng.Intn(2) == 0,
			Transform: core.TransformOptions{
				NoBoundOrder: rng.Intn(2) == 0,
				NoCmpReuse:   rng.Intn(2) == 0,
				NoTailDup:    rng.Intn(2) == 0,
			},
		}
		t.Run(fmt.Sprintf("variant%d", i), func(t *testing.T) {
			buildPair(t, cache, w.Source, train, o)
		})
	}
}

// Stage invalidation must be exact: a Transform change reruns only the
// finalize stage, a training-input change recomputes only stage 2, a
// frontend-option change recomputes everything.
func TestStageCacheInvalidation(t *testing.T) {
	w, ok := workload.Named("wc")
	if !ok {
		t.Fatal("wc workload missing")
	}
	trainA, trainB := w.Train(), w.Test()
	cache := NewStageCache()
	base := Options{Switch: lower.SetI, Optimize: true}
	mustStage := func(o Options, train []byte, want StageStats) {
		t.Helper()
		if _, err := cache.Build(w.Source, train, o); err != nil {
			t.Fatalf("Build: %v", err)
		}
		if got := cache.Stats(); got != want {
			t.Fatalf("stats after build: got %+v, want %+v", got, want)
		}
	}

	// Cold: one frontend, one training run. Build consults the frontend
	// cache twice per call (once directly, once from Train), so the
	// second consult is already a hit.
	mustStage(base, trainA, StageStats{FrontendRuns: 1, FrontendHits: 1, TrainRuns: 1})

	// Transform variant: stage 3 only — no new frontend or training runs.
	vary := base
	vary.Transform = core.TransformOptions{NoTailDup: true}
	mustStage(vary, trainA, StageStats{FrontendRuns: 1, FrontendHits: 2, TrainRuns: 1, TrainHits: 1})

	// New training input: stage 2 recomputes, stage 1 is reused.
	mustStage(base, trainB, StageStats{FrontendRuns: 1, FrontendHits: 4, TrainRuns: 2, TrainHits: 1})

	// New detection config: stage 2 recomputes, stage 1 is reused.
	cs := base
	cs.CommonSuccessor = true
	mustStage(cs, trainA, StageStats{FrontendRuns: 1, FrontendHits: 6, TrainRuns: 3, TrainHits: 1})

	// New heuristic set: everything recomputes.
	set3 := base
	set3.Switch = lower.SetIII
	mustStage(set3, trainA, StageStats{FrontendRuns: 2, FrontendHits: 7, TrainRuns: 4, TrainHits: 1})

	// Full repeat: every stage hits (a stage-2 memory hit skips the inner
	// frontend lookup, so only Build's own consult counts).
	mustStage(base, trainA, StageStats{FrontendRuns: 2, FrontendHits: 8, TrainRuns: 4, TrainHits: 2})
}

// memProfiles is an in-memory ProfileStore for tests.
type memProfiles struct {
	mu      sync.Mutex
	entries map[string]*TrainProduct
	gets    int
	puts    int
}

func profilesKey(src string, train []byte, fo FrontendOptions, d DetectOptions) string {
	return fmt.Sprintf("%q %q %+v %+v", src, train, fo, d)
}

func (m *memProfiles) GetProfile(src string, train []byte, fo FrontendOptions, d DetectOptions) (*TrainProduct, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gets++
	tp, ok := m.entries[profilesKey(src, train, fo, d)]
	return tp, ok
}

func (m *memProfiles) PutProfile(src string, train []byte, fo FrontendOptions, d DetectOptions, tp *TrainProduct) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.puts++
	if m.entries == nil {
		m.entries = map[string]*TrainProduct{}
	}
	m.entries[profilesKey(src, train, fo, d)] = tp
}

// A warm ProfileStore must let a fresh cache skip the training run
// entirely, and the resulting build must still be byte-identical to a
// fresh Build.
func TestStageCacheProfileStoreWarm(t *testing.T) {
	w, ok := workload.Named("wc")
	if !ok {
		t.Fatal("wc workload missing")
	}
	train := w.Train()
	o := Options{Switch: lower.SetI, Optimize: true}
	profiles := &memProfiles{}

	cold := NewStageCache()
	cold.Profiles = profiles
	if _, err := cold.Build(w.Source, train, o); err != nil {
		t.Fatalf("cold Build: %v", err)
	}
	if profiles.puts != 1 {
		t.Fatalf("cold build wrote %d profiles, want 1", profiles.puts)
	}
	if st := cold.Stats(); st.TrainRuns != 1 || st.TrainStoreHits != 0 {
		t.Fatalf("cold stats: %+v", st)
	}

	// A fresh cache (new process, same persistent tier) must not train.
	warm := NewStageCache()
	warm.Profiles = profiles
	buildPair(t, warm, w.Source, train, o)
	if st := warm.Stats(); st.TrainRuns != 0 || st.TrainStoreHits != 1 {
		t.Fatalf("warm stats: %+v (training run not skipped)", st)
	}
	if profiles.puts != 1 {
		t.Fatalf("warm build re-uploaded the profile: %d puts", profiles.puts)
	}
}

// Concurrent builds of one configuration must share single-flight stage
// computations: exactly one frontend and one training run.
func TestStageCacheSingleFlight(t *testing.T) {
	w, ok := workload.Named("wc")
	if !ok {
		t.Fatal("wc workload missing")
	}
	train := w.Train()
	o := Options{Switch: lower.SetI, Optimize: true}
	cache := NewStageCache()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cache.Build(w.Source, train, o)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
	}
	st := cache.Stats()
	if st.FrontendRuns != 1 || st.TrainRuns != 1 {
		t.Fatalf("concurrent builds did not share stages: %+v", st)
	}
}

// Eviction must bound the maps but never lose correctness: an evicted
// stage recomputes on next use.
func TestStageCacheEviction(t *testing.T) {
	w, ok := workload.Named("wc")
	if !ok {
		t.Fatal("wc workload missing")
	}
	cache := NewStageCache()
	cache.fronts = memo.New[*FrontendProduct](1)
	sets := []lower.HeuristicSet{lower.SetI, lower.SetII, lower.SetIII}
	for _, set := range sets {
		if _, err := cache.Frontend(w.Source, FrontendOptions{Switch: set, Optimize: true}); err != nil {
			t.Fatalf("frontend set %v: %v", set, err)
		}
	}
	if st := cache.Stats(); st.FrontendRuns != 3 {
		t.Fatalf("stats after fills: %+v", st)
	}
	// Set I was evicted long ago; using it again must recompute, not fail.
	if _, err := cache.Frontend(w.Source, FrontendOptions{Switch: lower.SetI, Optimize: true}); err != nil {
		t.Fatalf("re-frontend: %v", err)
	}
	if st := cache.Stats(); st.FrontendRuns != 4 {
		t.Fatalf("evicted frontend was not recomputed: %+v", st)
	}
}

// A training product from a diverging detection run must fail loudly in
// finalize, not silently misattribute counts.
func TestFinalizeStagesRejectsMismatchedProduct(t *testing.T) {
	w, ok := workload.Named("wc")
	if !ok {
		t.Fatal("wc workload missing")
	}
	o := Options{Switch: lower.SetI, Optimize: true}
	front, err := BuildFrontend(w.Source, o.Frontend())
	if err != nil {
		t.Fatal(err)
	}
	tp, err := TrainStage(front, w.Train(), o.Detection())
	if err != nil {
		t.Fatal(err)
	}
	bad := *tp
	bad.NumSeqs++
	if _, err := FinalizeStages(front, &bad, o); err == nil {
		t.Fatal("finalize accepted a product with the wrong sequence count")
	}
}
