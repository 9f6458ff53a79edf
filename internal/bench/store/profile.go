package store

import (
	"encoding/json"
	"errors"
	"fmt"

	"branchreorder/internal/core"
	"branchreorder/internal/pipeline"
)

// Stage-2 training products as content-addressed store entries. A build
// result's fingerprint covers the full pipeline configuration, so a new
// TransformOptions combination always misses the whole-build tier — but
// its frontend and training run are identical to ones already paid for.
// Persisting the training product under its own (narrower) fingerprint
// lets warm disk and fleet caches skip the training run even when the
// whole build misses: only the cheap finalize stage re-runs.

// ProfileCounts is one range-condition sequence's training counts.
type ProfileCounts struct {
	ID     int      `json:"id"`
	Total  uint64   `json:"total"`
	Counts []uint64 `json:"counts"`
}

// OrProfileCounts is one common-successor sequence's combination counts.
type OrProfileCounts struct {
	ID     int      `json:"id"`
	N      int      `json:"n"`
	Total  uint64   `json:"total"`
	Combos []uint64 `json:"combos"`
}

// ProfileRecord is the serializable form of a pipeline.TrainProduct:
// the profile data the paper's Figure 2 stores between its two passes,
// content-addressed so any machine with the same source, training input
// and detection configuration can reuse it.
type ProfileRecord struct {
	NumSeqs   int               `json:"numSeqs"`
	NumOrSeqs int               `json:"numOrSeqs"`
	Seqs      []ProfileCounts   `json:"seqs,omitempty"`
	OrSeqs    []OrProfileCounts `json:"orSeqs,omitempty"`
}

// Validate rejects records that could not have come from a real
// training run.
func (r *ProfileRecord) Validate() error {
	switch {
	case r == nil:
		return errors.New("store: nil profile record")
	case r.NumSeqs < 0 || r.NumOrSeqs < 0:
		return errors.New("store: profile record with negative sequence counts")
	case len(r.Seqs) > r.NumSeqs || len(r.OrSeqs) > r.NumOrSeqs:
		return errors.New("store: profile record counts more sequences than detected")
	}
	// Detection numbers range sequences 0..NumSeqs-1 and or-sequences
	// after them, and a training run counts each sequence once.
	seen := make(map[int]bool, len(r.Seqs)+len(r.OrSeqs))
	for _, s := range r.Seqs {
		if s.ID < 0 || s.ID >= r.NumSeqs || seen[s.ID] {
			return fmt.Errorf("store: profile record sequence ID %d is duplicated or outside [0, %d)", s.ID, r.NumSeqs)
		}
		seen[s.ID] = true
		var sum uint64
		for _, c := range s.Counts {
			sum += c
		}
		if sum != s.Total {
			return fmt.Errorf("store: profile record sequence %d: counts sum %d != total %d", s.ID, sum, s.Total)
		}
	}
	for _, s := range r.OrSeqs {
		if s.ID < r.NumSeqs || s.ID >= r.NumSeqs+r.NumOrSeqs || seen[s.ID] {
			return fmt.Errorf("store: profile record or-sequence ID %d is duplicated or outside [%d, %d)",
				s.ID, r.NumSeqs, r.NumSeqs+r.NumOrSeqs)
		}
		seen[s.ID] = true
		if s.N < 0 || s.N > 30 || 1<<uint(s.N) != len(s.Combos) {
			return fmt.Errorf("store: profile record or-sequence %d: %d combos for n=%d", s.ID, len(s.Combos), s.N)
		}
		var sum uint64
		for _, c := range s.Combos {
			sum += c
		}
		if sum != s.Total {
			return fmt.Errorf("store: profile record or-sequence %d: combos sum %d != total %d", s.ID, sum, s.Total)
		}
	}
	return nil
}

// FromTrain converts a training product to its serializable form.
// Sequences are emitted in ascending ID order so identical products
// encode to identical bytes.
func FromTrain(tp *pipeline.TrainProduct) *ProfileRecord {
	r := &ProfileRecord{NumSeqs: tp.NumSeqs, NumOrSeqs: tp.NumOrSeqs}
	for id := 0; id < tp.NumSeqs+tp.NumOrSeqs; id++ {
		if sp, ok := tp.SeqProfiles[id]; ok {
			r.Seqs = append(r.Seqs, ProfileCounts{
				ID:     id,
				Total:  sp.Total,
				Counts: append([]uint64(nil), sp.Counts...),
			})
		}
		if sp, ok := tp.OrSeqProfiles[id]; ok {
			r.OrSeqs = append(r.OrSeqs, OrProfileCounts{
				ID:     id,
				N:      sp.N,
				Total:  sp.Total,
				Combos: append([]uint64(nil), sp.Combos...),
			})
		}
	}
	return r
}

// Train converts the record back to the form the finalize stage consumes.
func (r *ProfileRecord) Train() *pipeline.TrainProduct {
	tp := &pipeline.TrainProduct{
		SeqProfiles:   make(map[int]*core.SeqProfile, len(r.Seqs)),
		OrSeqProfiles: make(map[int]*core.OrSeqProfile, len(r.OrSeqs)),
		NumSeqs:       r.NumSeqs,
		NumOrSeqs:     r.NumOrSeqs,
	}
	for _, s := range r.Seqs {
		tp.SeqProfiles[s.ID] = &core.SeqProfile{
			Counts: append([]uint64(nil), s.Counts...),
			Total:  s.Total,
		}
	}
	for _, s := range r.OrSeqs {
		tp.OrSeqProfiles[s.ID] = &core.OrSeqProfile{
			N:      s.N,
			Combos: append([]uint64(nil), s.Combos...),
			Total:  s.Total,
		}
	}
	return tp
}

// ProfileFingerprint derives the content address of one stage-2 product:
// a SHA-256 over the schema version, an entry-kind tag (so profile and
// build entries can never collide), the workload source, the training
// input, and the stage-relevant option subsets. TransformOptions is
// deliberately absent — that is the whole point: every Transform variant
// of a configuration shares one training product.
func ProfileFingerprint(source string, train []byte, fo pipeline.FrontendOptions, d pipeline.DetectOptions) string {
	return fingerprintSections(
		section2{"kind", []byte(KindProfile)},
		section2{"source", []byte(source)},
		section2{"train", train},
		section2{"frontend", mustJSON(fo)},
		section2{"detect", mustJSON(d)},
	)
}

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Flat structs of ints and bools; Marshal cannot fail.
		panic(err)
	}
	return b
}

// EncodeProfile serializes rec as the profile entry keyed by fp.
func EncodeProfile(fp string, rec *ProfileRecord) ([]byte, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return encodeEnvelope(KindProfile, fp, rec)
}

// DecodeProfile parses one profile entry with the same contract as
// Decode: any malformed input is an error, never a panic, and callers
// treat errors as cache misses.
func DecodeProfile(data []byte, fp string) (*ProfileRecord, error) {
	payload, err := decodeEnvelope(data, KindProfile, fp)
	if err != nil {
		return nil, err
	}
	var rec ProfileRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return &rec, nil
}

// VerifyEntry fully validates an encoded entry of any known kind —
// framing, checksum, fingerprint, and payload shape — returning the
// entry's kind. It is the network store's serve/upload gate.
func VerifyEntry(data []byte, fp string) (string, error) {
	kind, err := EntryKind(data)
	if err != nil {
		return "", err
	}
	switch kind {
	case KindBuild:
		_, err = Decode(data, fp)
	case KindProfile:
		_, err = DecodeProfile(data, fp)
	case KindMerged:
		_, err = DecodeMerged(data, fp)
	default:
		err = fmt.Errorf("store: unknown entry kind %q", kind)
	}
	return kind, err
}

// GetRaw returns the verified raw bytes of the entry for fp, whatever
// its kind; same miss/invalid contract as Get. Entries are written
// canonically encoded, so the bytes can be served as-is.
func (s *Store) GetRaw(fp string) ([]byte, Status) {
	data, st := s.read(fp)
	if st != Hit {
		return nil, st
	}
	if _, err := VerifyEntry(data, fp); err != nil {
		return nil, Invalid
	}
	return data, Hit
}

// GetProfile loads the profile entry for fp; same contract as Get.
func (s *Store) GetProfile(fp string) (*ProfileRecord, Status) {
	data, st := s.read(fp)
	if st != Hit {
		return nil, st
	}
	rec, err := DecodeProfile(data, fp)
	if err != nil {
		return nil, Invalid
	}
	return rec, Hit
}

// PutProfile writes the profile entry for fp with Put's atomicity.
func (s *Store) PutProfile(fp string, rec *ProfileRecord) error {
	data, err := EncodeProfile(fp, rec)
	if err != nil {
		return err
	}
	return s.write(fp, data)
}
