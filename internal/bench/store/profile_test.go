package store

import (
	"strings"
	"testing"

	"branchreorder/internal/core"
	"branchreorder/internal/pipeline"
)

func sampleTrain() *pipeline.TrainProduct {
	return &pipeline.TrainProduct{
		SeqProfiles: map[int]*core.SeqProfile{
			0: {Counts: []uint64{3, 5, 2}, Total: 10},
		},
		OrSeqProfiles: map[int]*core.OrSeqProfile{
			1: {N: 2, Combos: []uint64{1, 2, 3, 4}, Total: 10},
		},
		NumSeqs:   1,
		NumOrSeqs: 1,
	}
}

func profileFP() string {
	return ProfileFingerprint("int main() { return 0; }", []byte("train"),
		pipeline.FrontendOptions{Optimize: true}, pipeline.DetectOptions{})
}

func TestProfileRecordRoundTrip(t *testing.T) {
	tp := sampleTrain()
	rec := FromTrain(tp)
	fp := profileFP()
	data, err := EncodeProfile(fp, rec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProfile(data, fp)
	if err != nil {
		t.Fatal(err)
	}
	tp2 := back.Train()
	if tp2.NumSeqs != tp.NumSeqs || tp2.NumOrSeqs != tp.NumOrSeqs {
		t.Fatalf("counts lost: %+v", tp2)
	}
	sp := tp2.SeqProfiles[0]
	if sp == nil || sp.Total != 10 || len(sp.Counts) != 3 || sp.Counts[1] != 5 {
		t.Fatalf("seq profile lost: %+v", sp)
	}
	op := tp2.OrSeqProfiles[1]
	if op == nil || op.N != 2 || len(op.Combos) != 4 || op.Combos[3] != 4 {
		t.Fatalf("or-seq profile lost: %+v", op)
	}
}

func TestProfileRecordValidateRejects(t *testing.T) {
	cases := map[string]*ProfileRecord{
		"counts-dont-sum": {NumSeqs: 1, Seqs: []ProfileCounts{{ID: 0, Total: 9, Counts: []uint64{3, 5}}}},
		"too-many-seqs":   {NumSeqs: 0, Seqs: []ProfileCounts{{ID: 0, Total: 0}}},
		"combo-shape":     {NumOrSeqs: 1, OrSeqs: []OrProfileCounts{{ID: 0, N: 2, Total: 3, Combos: []uint64{1, 2}}}},
		"negative":        {NumSeqs: -1},
		"id-past-numseqs": {NumSeqs: 1, Seqs: []ProfileCounts{{ID: 1, Total: 1, Counts: []uint64{1}}}},
		"negative-id":     {NumSeqs: 1, Seqs: []ProfileCounts{{ID: -1, Total: 1, Counts: []uint64{1}}}},
		"duplicate-id": {NumSeqs: 2, Seqs: []ProfileCounts{
			{ID: 0, Total: 1, Counts: []uint64{1}}, {ID: 0, Total: 1, Counts: []uint64{1}}}},
		"or-id-in-range-ids": {NumSeqs: 1, NumOrSeqs: 1,
			OrSeqs: []OrProfileCounts{{ID: 0, N: 1, Total: 1, Combos: []uint64{0, 1}}}},
	}
	for name, rec := range cases {
		if err := rec.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	var nilRec *ProfileRecord
	if err := nilRec.Validate(); err == nil {
		t.Error("nil record accepted")
	}
}

// Build and profile entries share the pool; kind must dispatch correctly
// and cross-kind decodes must fail.
func TestEntryKindDispatch(t *testing.T) {
	fp := profileFP()
	data, err := EncodeProfile(fp, FromTrain(sampleTrain()))
	if err != nil {
		t.Fatal(err)
	}
	kind, err := EntryKind(data)
	if err != nil || kind != KindProfile {
		t.Fatalf("EntryKind = %q, %v", kind, err)
	}
	if _, err := Decode(data, fp); err == nil {
		t.Error("build decoder accepted a profile entry")
	}
	if k, err := VerifyEntry(data, fp); err != nil || k != KindProfile {
		t.Errorf("VerifyEntry = %q, %v", k, err)
	}
	if _, err := VerifyEntry(data, strings.Repeat("0", 64)); err == nil {
		t.Error("VerifyEntry accepted a wrong fingerprint")
	}
}

func TestStoreProfilePutGet(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := profileFP()
	if _, status := st.GetProfile(fp); status != Miss {
		t.Fatalf("empty store: %v", status)
	}
	rec := FromTrain(sampleTrain())
	if err := st.PutProfile(fp, rec); err != nil {
		t.Fatal(err)
	}
	back, status := st.GetProfile(fp)
	if status != Hit || back.NumSeqs != 1 {
		t.Fatalf("get after put: %v %+v", status, back)
	}
	// GetRaw serves the canonical bytes of either kind.
	raw, status := st.GetRaw(fp)
	if status != Hit {
		t.Fatalf("GetRaw: %v", status)
	}
	if _, err := DecodeProfile(raw, fp); err != nil {
		t.Fatalf("raw bytes do not decode: %v", err)
	}
	// A build-kind Get on a profile entry must be Invalid, not a crash.
	if _, status := st.Get(fp); status != Invalid {
		t.Fatalf("build Get on profile entry: %v", status)
	}
}

// ProfileFingerprint must move with every input and ignore none.
func TestProfileFingerprintSensitivity(t *testing.T) {
	base := ProfileFingerprint("src", []byte("train"), pipeline.FrontendOptions{Optimize: true}, pipeline.DetectOptions{})
	variants := []string{
		ProfileFingerprint("src2", []byte("train"), pipeline.FrontendOptions{Optimize: true}, pipeline.DetectOptions{}),
		ProfileFingerprint("src", []byte("train2"), pipeline.FrontendOptions{Optimize: true}, pipeline.DetectOptions{}),
		ProfileFingerprint("src", []byte("train"), pipeline.FrontendOptions{Switch: 1, Optimize: true}, pipeline.DetectOptions{}),
		ProfileFingerprint("src", []byte("train"), pipeline.FrontendOptions{Optimize: false}, pipeline.DetectOptions{}),
		ProfileFingerprint("src", []byte("train"), pipeline.FrontendOptions{Optimize: true}, pipeline.DetectOptions{CommonSuccessor: true}),
	}
	seen := map[string]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Errorf("variant %d collides", i)
		}
		seen[v] = true
	}
}
