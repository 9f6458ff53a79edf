package pipeline

import (
	"bytes"
	"strings"
	"testing"

	"branchreorder/internal/core"
	"branchreorder/internal/lower"
	"branchreorder/internal/workload"
)

// firstPass runs stages 1 and 2 and serializes the training product, as
// brcc -profile-out does.
func firstPass(t *testing.T, w workload.Workload, o Options) []byte {
	t.Helper()
	front, err := BuildFrontend(w.Source, o.Frontend())
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	tp, err := TrainStage(front, w.Train(), o.Detection())
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, tp); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return buf.Bytes()
}

// secondPass recompiles and finalizes against a stored profile, as brcc
// -profile-in does.
func secondPass(w workload.Workload, o Options, profile []byte) (*BuildResult, error) {
	tp, err := ReadProfile(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	front, err := BuildFrontend(w.Source, o.Frontend())
	if err != nil {
		return nil, err
	}
	return FinalizeStages(front, tp, o)
}

// The explicit two-pass workflow with the profile externalized must
// produce exactly the program the in-memory Build does, for every
// workload (exercising the paper's Figure 2 with a profile data file).
func TestTwoPassMatchesBuild(t *testing.T) {
	opts := Options{Switch: lower.SetI, Optimize: true, CommonSuccessor: true}
	for _, name := range []string{"wc", "cpp", "yacc", "sort"} {
		w, _ := workload.Named(name)
		prof := firstPass(t, w, opts)
		twoPass, err := secondPass(w, opts, prof)
		if err != nil {
			t.Fatalf("%s: second pass: %v\n%s", name, err, prof)
		}
		ref, err := Build(w.Source, w.Train(), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := twoPass.Reordered.Dump(), ref.Reordered.Dump(); got != want {
			t.Errorf("%s: two-pass program differs from Build\ntwo-pass:\n%s\nBuild:\n%s", name, got, want)
		}
	}
}

func TestProfileRoundTrip(t *testing.T) {
	w, _ := workload.Named("lex")
	opts := Options{Switch: lower.SetIII, Optimize: true, CommonSuccessor: true}
	front, err := BuildFrontend(w.Source, opts.Frontend())
	if err != nil {
		t.Fatal(err)
	}
	tp, err := TrainStage(front, w.Train(), opts.Detection())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, tp); err != nil {
		t.Fatal(err)
	}
	back, err := ReadProfile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSeqs != tp.NumSeqs || back.NumOrSeqs != tp.NumOrSeqs {
		t.Errorf("round trip changed the detection shape: %d/%d vs %d/%d",
			back.NumSeqs, back.NumOrSeqs, tp.NumSeqs, tp.NumOrSeqs)
	}
	if tp.NumOrSeqs == 0 {
		t.Error("lex under -common-succ detected no or-sequences; the or-profile path is untested")
	}
	for id, sp := range tp.SeqProfiles {
		got := back.SeqProfiles[id]
		if got == nil || got.Total != sp.Total || len(got.Counts) != len(sp.Counts) {
			t.Fatalf("sequence %d mangled", id)
		}
		for i := range sp.Counts {
			if got.Counts[i] != sp.Counts[i] {
				t.Fatalf("sequence %d count %d changed", id, i)
			}
		}
	}
	for id, sp := range tp.OrSeqProfiles {
		got := back.OrSeqProfiles[id]
		if got == nil || got.Total != sp.Total || got.N != sp.N {
			t.Fatalf("or-sequence %d mangled", id)
		}
		for i := range sp.Combos {
			if got.Combos[i] != sp.Combos[i] {
				t.Fatalf("or-sequence %d combo %d changed", id, i)
			}
		}
	}
}

func TestReadProfilesErrors(t *testing.T) {
	bad := []string{
		"bogus 1 total 2 counts 1 1",
		"seq x total 2 counts 1 1",
		"seq 1 total 3 counts 1 1",                           // sum mismatch
		"seq 1 total 2 combos 1 1",                           // wrong keyword
		"orseq 1 total 3 combos 1 1 1",                       // not a power of two
		"seq 1 sum 2 counts 1 1",                             // bad structure
		"seq 1 total 2 counts 1 1\nseq 1 total 0 counts 0 0", // duplicate ID
	}
	for _, src := range bad {
		if _, _, err := core.ReadProfiles(strings.NewReader(src)); err == nil {
			t.Errorf("ReadProfiles(%q) succeeded", src)
		}
	}
	// Comments and blank lines are fine.
	good := "# comment\n\nseq 1 total 2 counts 1 1\n"
	if _, _, err := core.ReadProfiles(strings.NewReader(good)); err != nil {
		t.Errorf("ReadProfiles rejected valid input: %v", err)
	}
}

// A stored profile that disagrees with what the second pass re-detects
// must fail the stage check, whatever the disagreement.
func TestFinalizeRejectsMismatchedProfile(t *testing.T) {
	w, _ := workload.Named("wc")
	sortW, _ := workload.Named("sort")
	opts := Options{Switch: lower.SetI, Optimize: true}
	good := firstPass(t, w, opts)
	if _, err := secondPass(w, opts, good); err != nil {
		t.Fatalf("wc's own profile rejected: %v", err)
	}
	if !strings.HasPrefix(string(good), "seq 0 ") {
		t.Fatalf("wc profile does not start with sequence 0:\n%s", good)
	}
	_, rest, _ := strings.Cut(string(good), "\n")
	for name, prof := range map[string]string{
		"empty":   "",
		"foreign": string(firstPass(t, sortW, opts)),
		// Sequence 0 with a single count: wc's sequence 0 has more arms.
		"wrong-arms": "seq 0 total 1 counts 1\n" + rest,
		// Every line kept, but sequence 0 renamed to an undetected ID.
		"undetected": strings.Replace(string(good), "seq 0 ", "seq 99 ", 1),
	} {
		_, err := secondPass(w, opts, []byte(prof))
		if err == nil || !strings.Contains(err.Error(), "stage mismatch") {
			t.Errorf("%s profile: got %v, want a stage mismatch", name, err)
		}
	}
}
