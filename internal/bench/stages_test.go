package bench

import (
	"context"
	"reflect"
	"testing"

	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
)

// The ablation grid is the staged pipeline's reason to exist: five
// variants of one workload must share one frontend and two training runs
// (the four CommonSuccessor=false variants share one, "+common-succ"
// needs its own), and one baseline measurement: every variant's
// Baseline is the shared frontend program, measured on one test input.
func TestAblationGridSharesStages(t *testing.T) {
	e := NewEngine(4, nil)
	rows, err := RunAblationWith(context.Background(), e, lower.SetIII, []string{"wc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows: %+v", rows)
	}
	st := e.Stats()
	nvar := len(AblationVariants(lower.SetIII))
	if st.Builds != nvar {
		t.Errorf("builds: %d, want %d", st.Builds, nvar)
	}
	if st.FrontendRuns != 1 {
		t.Errorf("frontend runs: %d, want 1 (variants did not share stage 1)", st.FrontendRuns)
	}
	if st.TrainRuns != 2 {
		t.Errorf("training runs: %d, want 2 (one per detection config)", st.TrainRuns)
	}
	if st.Sims != nvar+1 || st.BaselinesReused != nvar-1 {
		t.Errorf("sims: %d run, %d baselines reused; want %d and %d", st.Sims, st.BaselinesReused, nvar+1, nvar-1)
	}
	if st.FrontendHits == 0 || st.TrainHits == 0 {
		t.Errorf("no stage hits recorded: %+v", st)
	}
}

// A warm disk tier must hand a new engine the stage-2 profile even when
// the whole-build record misses (a Transform variant it has never seen),
// so only the cheap finalize stage runs — and the result must be
// identical to a fully cold build of that variant.
func TestProfileTierSkipsTraining(t *testing.T) {
	ws := subset(t, "wc")
	ctx := context.Background()
	dir := t.TempDir()

	a := NewEngine(2, nil)
	a.UseStore(openStore(t, dir))
	if _, err := a.Get(ctx, ws[0], BaseOptions(lower.SetI)); err != nil {
		t.Fatal(err)
	}
	as := a.Stats()
	if as.ProfilePuts != 1 || as.TrainRuns != 1 {
		t.Fatalf("machine A did not persist its training product: %+v", as)
	}

	// Machine B asks for a Transform variant A never built: whole-build
	// record misses, profile record hits.
	vary := BaseOptions(lower.SetI)
	vary.Transform.NoTailDup = true

	b := NewEngine(2, nil)
	b.UseStore(openStore(t, dir))
	rb, err := b.Get(ctx, ws[0], vary)
	if err != nil {
		t.Fatal(err)
	}
	bs := b.Stats()
	if bs.DiskHits != 0 || bs.Builds != 1 {
		t.Fatalf("variant unexpectedly served from the whole-build tier: %+v", bs)
	}
	if bs.ProfileHits != 1 || bs.TrainRuns != 0 {
		t.Errorf("training was not skipped via the profile tier: %+v", bs)
	}
	if bs.FrontendRuns != 1 {
		t.Errorf("frontend runs: %d, want 1", bs.FrontendRuns)
	}

	cold := NewEngine(2, nil)
	rc, err := cold.Get(ctx, ws[0], vary)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rb.Record(), rc.Record()) {
		t.Errorf("profile-warm build differs from cold build:\nwarm: %+v\ncold: %+v", rb.Record(), rc.Record())
	}
}

// Profile records must travel the remote tier like build records: machine
// A uploads its training product, machine B — cold disk — skips the
// training run for a variant the fleet has never finalized.
func TestRemoteProfileWarmsSecondMachine(t *testing.T) {
	_, client := remoteFixture(t)
	ws := subset(t, "wc")
	ctx := context.Background()

	a := NewEngine(2, nil)
	a.UseRemote(client)
	if _, err := a.Get(ctx, ws[0], BaseOptions(lower.SetI)); err != nil {
		t.Fatal(err)
	}
	if as := a.Stats(); as.ProfilePuts != 1 {
		t.Fatalf("machine A did not upload its training product: %+v", as)
	}

	vary := BaseOptions(lower.SetI)
	vary.Transform.NoBoundOrder = true
	bDisk := t.TempDir()
	b := NewEngine(2, nil)
	b.UseStore(openStore(t, bDisk))
	b.UseRemote(client)
	if _, err := b.Get(ctx, ws[0], vary); err != nil {
		t.Fatal(err)
	}
	bs := b.Stats()
	if bs.ProfileHits != 1 || bs.TrainRuns != 0 {
		t.Errorf("remote profile did not skip the training run: %+v", bs)
	}

	// The remote hit was written through to B's disk: a third engine on
	// the same disk (dead remote) still skips training.
	c := NewEngine(2, nil)
	c.UseStore(openStore(t, bDisk))
	varyMore := vary
	varyMore.Transform.NoCmpReuse = true
	if _, err := c.Get(ctx, ws[0], varyMore); err != nil {
		t.Fatal(err)
	}
	if cs := c.Stats(); cs.ProfileHits != 1 || cs.TrainRuns != 0 {
		t.Errorf("write-through profile missing from B's disk: %+v", cs)
	}
}

// AutoBuild's three candidate sets share one stage cache; handing it a
// pre-warmed cache must skip every frontend and training run.
func TestAutoBuildSharesStageCache(t *testing.T) {
	ws := subset(t, "wc")
	w := ws[0]
	cache := pipeline.NewStageCache()
	for _, set := range Sets() {
		if _, err := cache.Build(w.Source, w.Train(), BaseOptions(set)); err != nil {
			t.Fatal(err)
		}
	}
	warm := cache.Stats()
	if _, err := pipeline.AutoBuildWith(cache, w.Source, w.Train(), pipeline.Options{Optimize: true}); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.FrontendRuns != warm.FrontendRuns || st.TrainRuns != warm.TrainRuns {
		t.Errorf("AutoBuild recomputed warmed stages: before %+v, after %+v", warm, st)
	}
	if st.TrainHits <= warm.TrainHits {
		t.Errorf("AutoBuild did not consult the shared cache: before %+v, after %+v", warm, st)
	}
}
