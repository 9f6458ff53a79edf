package bench

import (
	"context"
	"reflect"
	"testing"

	"branchreorder/internal/bench/store"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/profile"
)

// The zero profile configuration and the study's rate-1 reference must
// be invisible: builds carrying them measure exactly what a plain build
// measures. This is the differential guard for the whole subsystem —
// when nobody asks for sampling, nothing changes.
func TestExactModeMatchesPlainBuild(t *testing.T) {
	ws := subset(t, "wc", "sort")
	for _, w := range ws {
		plain, err := NewEngine(1, nil).runStaged(w, BaseOptions(lower.SetII))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewEngine(1, nil).runStaged(w, ProfileStudyOptions(profile.DriftCross, 1, 7, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Base, ref.Base) || !reflect.DeepEqual(plain.Reord, ref.Reord) {
			t.Errorf("%s: rate-1 reference measured differently from a plain build", w.Name)
		}
		if !reflect.DeepEqual(plain.Seqs, ref.Seqs) {
			t.Errorf("%s: rate-1 reference selected different orderings", w.Name)
		}
	}
}

// A sampled build must degrade gracefully: same sequence count, and the
// injected-bias arm must actually corrupt selection inputs (the study's
// proof that its metrics are live).
func TestProfileStudyRowsReactToBias(t *testing.T) {
	ws := subset(t, "wc", "sort", "lex")
	ctx := context.Background()
	rates := []int{1, 8}
	clean, err := RunProfileStudyWith(ctx, NewEngine(4, nil), ws, rates, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ws) * len(ProfileStudyDrifts()) * len(rates); len(clean) != want {
		t.Fatalf("%d rows, want %d", len(clean), want)
	}
	for _, r := range clean {
		if r.Rate == 1 && (r.OrderAgree != 100 || r.DefaultAgree != 100 || r.CycleDelta != 0) {
			t.Errorf("%s/%s rate 1: reference row disagrees with itself: %+v", r.Workload, r.Drift, r)
		}
		if r.Seqs == 0 {
			t.Errorf("%s/%s 1/%d: no sequences compared", r.Workload, r.Drift, r.Rate)
		}
	}
	// A large bias swamps every sampled count; some selection must move.
	biased, err := RunProfileStudyWith(ctx, NewEngine(4, nil), ws, rates, 1, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(clean, biased) {
		t.Error("bias injection left every study row unchanged")
	}
	for _, r := range biased {
		if r.Rate == 1 && (r.OrderAgree != 100 || r.CycleDelta != 0) {
			t.Errorf("%s/%s: bias leaked into the rate-1 reference: %+v", r.Workload, r.Drift, r)
		}
	}
}

// The study table must not leak worker-pool completion order.
func TestProfileStudyDeterministicAcrossJobs(t *testing.T) {
	ws := subset(t, "wc", "sort")
	ctx := context.Background()
	rates := []int{1, 64}
	serial, err := RunProfileStudyWith(ctx, NewEngine(1, nil), ws, rates, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunProfileStudyWith(ctx, NewEngine(8, nil), ws, rates, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, want := ProfileStudyTable(parallel), ProfileStudyTable(serial)
	if got != want {
		t.Errorf("-j 8 study differs from -j 1:\n--- j=8 ---\n%s\n--- j=1 ---\n%s", got, want)
	}
}

func TestRunProfileStudyRejectsBadRates(t *testing.T) {
	ws := subset(t, "wc")
	ctx := context.Background()
	if _, err := RunProfileStudyWith(ctx, NewEngine(1, nil), ws, []int{8, 64}, 1, 0); err == nil {
		t.Error("missing reference rate accepted")
	}
	if _, err := RunProfileStudyWith(ctx, NewEngine(1, nil), ws, []int{1, 0}, 1, 0); err == nil {
		t.Error("rate 0 accepted")
	}
}

// Two runs over a shared disk store must accumulate profile wisdom: the
// first run's training product lands in a merged-profile record, and a
// second run that trains again (different drift arm, so the whole-build
// and stage-2 keys miss while the merged fingerprint matches) folds it
// back in as a merge hit.
func TestMergedProfileWarmStart(t *testing.T) {
	dir := t.TempDir()
	w := subset(t, "wc")[0]
	ctx := context.Background()
	withMerge := func(drift profile.Drift) pipeline.Options {
		o := BaseOptions(lower.SetII)
		o.Profile = profile.Config{Merge: true, Drift: drift}
		return o
	}

	run := func(drift profile.Drift) EngineStats {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(1, nil)
		e.UseStore(st)
		if _, err := e.Get(ctx, w, withMerge(drift)); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}

	first := run(profile.DriftCross)
	if first.TrainRuns != 1 || first.ProfileMergeHits != 0 {
		t.Fatalf("cold run stats: %+v", first)
	}
	if first.ProfilePuts == 0 {
		t.Fatalf("cold run persisted no merged profile: %+v", first)
	}
	second := run(profile.DriftNone)
	if second.TrainRuns != 1 {
		t.Fatalf("warm run did not train: %+v", second)
	}
	if second.ProfileMergeHits != 1 {
		t.Errorf("warm run stats: %+v, want 1 merged-profile reuse", second)
	}

	// The merged record now carries both training inputs.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := withMerge(profile.DriftNone)
	fp := store.MergedFingerprint(w.Source, opts.Frontend(), opts.Detection())
	rec, status := st.GetMerged(fp)
	if status != store.Hit {
		t.Fatalf("merged record missing: %v", status)
	}
	if len(rec.Contribs) != 2 {
		t.Errorf("merged record has %d contributions, want 2", len(rec.Contribs))
	}
}
