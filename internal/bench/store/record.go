package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"branchreorder/internal/interp"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/sim"
)

// SeqStat is the per-sequence outcome the static table and the
// sequence-length figures consume: whether the sequence was reordered,
// and its length in conditional branches before and after (NewBranches
// is 0 when the reordering was skipped).
type SeqStat struct {
	Applied      bool `json:"applied"`
	OrigBranches int  `json:"origBranches"`
	NewBranches  int  `json:"newBranches"`
	// The selected ordering (core.Ordering), recorded so the profile
	// quality study can compare a sampled/drifted build's selections
	// against the exact build's without re-deriving them: the explicit
	// test order (arm indices), the omitted arms, and the Figure-8
	// default-choice target (-1 when nothing is omitted).
	Order   []int `json:"order,omitempty"`
	Omitted []int `json:"omitted,omitempty"`
	Default int   `json:"default"`
}

// Measurement mirrors sim.Measurement with a lossless output encoding:
// JSON strings must be valid UTF-8, so program output travels as bytes
// (base64) and survives arbitrary content byte-for-byte.
type Measurement struct {
	Stats       interp.Stats      `json:"stats"`
	Output      []byte            `json:"output"`
	Ret         int64             `json:"ret"`
	Mispredicts map[string]uint64 `json:"mispredicts"`
	Cycles      map[string]uint64 `json:"cycles"`

	// Fusion describes the measuring engine's superinstruction fusion,
	// not the measured program — results are byte-identical with fusion
	// on or off, which is why records written before the field existed
	// (or with fusion off) remain valid without a schema bump.
	Fusion *interp.FusionStats `json:"fusion,omitempty"`
}

// FromSim converts a measurement to its serializable form.
func FromSim(m *sim.Measurement) *Measurement {
	if m == nil {
		return nil
	}
	out := &Measurement{
		Stats:       m.Stats,
		Output:      []byte(m.Output),
		Ret:         m.Ret,
		Mispredicts: m.Mispredicts,
		Cycles:      m.Cycles,
	}
	if m.Fusion.Ops > 0 {
		f := m.Fusion
		out.Fusion = &f
	}
	return out
}

// Sim converts the measurement back for the tables and figures.
func (m *Measurement) Sim() *sim.Measurement {
	out := &sim.Measurement{
		Stats:       m.Stats,
		Output:      string(m.Output),
		Ret:         m.Ret,
		Mispredicts: m.Mispredicts,
		Cycles:      m.Cycles,
	}
	if m.Fusion != nil {
		out.Fusion = *m.Fusion
	}
	return out
}

// Record is the serializable form of one build+measure result: a
// bench.ProgramRun without the in-memory programs. Everything any table,
// figure or ablation row derives is here.
type Record struct {
	Workload    string           `json:"workload"`
	Set         int              `json:"set"`
	Opts        pipeline.Options `json:"options"`
	Base        *Measurement     `json:"base"`
	Reord       *Measurement     `json:"reord"`
	StaticBase  int64            `json:"staticBase"`
	StaticReord int64            `json:"staticReord"`
	Seqs        []SeqStat        `json:"seqs"`
}

// Validate rejects records that could not have come from a real run.
func (r *Record) Validate() error {
	switch {
	case r == nil:
		return errors.New("store: nil record")
	case r.Workload == "":
		return errors.New("store: record has no workload name")
	case r.Base == nil || r.Reord == nil:
		return errors.New("store: record missing measurements")
	case r.Set != int(r.Opts.Switch):
		return fmt.Errorf("store: record set %d disagrees with options set %d", r.Set, int(r.Opts.Switch))
	}
	return nil
}

// Entry kinds. Build records predate the kind field, so theirs encodes
// as the absent zero value and old entries decode unchanged.
const (
	KindBuild   = ""               // a whole build+measure Record
	KindProfile = "profile"        // a stage-2 ProfileRecord
	KindMerged  = "merged-profile" // a cross-input MergedRecord
)

// envelope is the on-disk framing of one store entry. Record is kept as
// raw JSON so the checksum covers the exact serialized payload.
type envelope struct {
	Schema      int             `json:"schema"`
	Kind        string          `json:"kind,omitempty"`
	Fingerprint string          `json:"fingerprint"`
	Sum         string          `json:"sum"`
	Record      json.RawMessage `json:"record"`
}

// encodeEnvelope frames an already-validated payload as a store entry.
func encodeEnvelope(kind, fp string, payload interface{}) ([]byte, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sum := sha256.Sum256(body)
	data, err := json.MarshalIndent(envelope{
		Schema:      SchemaVersion,
		Kind:        kind,
		Fingerprint: fp,
		Sum:         hex.EncodeToString(sum[:]),
		Record:      body,
	}, "", "\t")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return append(data, '\n'), nil
}

// decodeEnvelope verifies one store entry's framing — schema, kind,
// fingerprint, checksum — and returns the raw payload. Every malformed
// input yields an error, never a panic.
func decodeEnvelope(data []byte, kind, fp string) (json.RawMessage, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if env.Schema != SchemaVersion {
		return nil, fmt.Errorf("store: entry schema %d, want %d", env.Schema, SchemaVersion)
	}
	if env.Kind != kind {
		return nil, fmt.Errorf("store: entry kind %q, want %q", env.Kind, kind)
	}
	if fp != "" && env.Fingerprint != fp {
		return nil, errors.New("store: entry fingerprint does not match its key")
	}
	// The checksum covers the compact payload: indentation inside the
	// envelope is cosmetic, content is not.
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Record); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sum := sha256.Sum256(compact.Bytes())
	if hex.EncodeToString(sum[:]) != env.Sum {
		return nil, errors.New("store: payload checksum mismatch")
	}
	return env.Record, nil
}

// EntryKind reports which kind of entry data frames, without validating
// its payload. Used by the network store's upload gate to pick the right
// validator.
func EntryKind(data []byte) (string, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	return env.Kind, nil
}

// Encode serializes rec as the store entry keyed by fp.
func Encode(fp string, rec *Record) ([]byte, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return encodeEnvelope(KindBuild, fp, rec)
}

// Decode parses one store entry. fp, when non-empty, must match the
// fingerprint recorded inside the entry — a file renamed to the wrong
// key is not a usable result. Every malformed input yields an error,
// never a panic; callers treat any error as a cache miss.
func Decode(data []byte, fp string) (*Record, error) {
	payload, err := decodeEnvelope(data, KindBuild, fp)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return &rec, nil
}

// exportFile frames a list of records: the -export shard interchange and
// the -json dump share this format, so a -json dump can also be merged.
// Stats carries the exporting engine's cache counters so a merge can
// account for every shard's activity; it is optional, so pre-stats
// exports still read cleanly (as a nil Stats).
type exportFile struct {
	Schema  int        `json:"schema"`
	Stats   *TierStats `json:"stats,omitempty"`
	Records []*Record  `json:"records"`
}

// WriteExport serializes records, preserving their order. stats, when
// non-nil, rides along so the merging side can total cache activity
// across shards.
func WriteExport(w io.Writer, recs []*Record, stats *TierStats) error {
	for i, rec := range recs {
		if err := rec.Validate(); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	if err := enc.Encode(exportFile{Schema: SchemaVersion, Stats: stats, Records: recs}); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// ReadExport parses an exported shard. Unlike store entries — where a
// bad file is just a cache miss — corruption here is a hard error: the
// caller asked to merge exactly this data. The returned stats are nil
// for exports written before stats existed.
func ReadExport(r io.Reader) ([]*Record, *TierStats, error) {
	var f exportFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, nil, fmt.Errorf("store: export: %w", err)
	}
	if f.Schema != SchemaVersion {
		return nil, nil, fmt.Errorf("store: export schema %d, want %d", f.Schema, SchemaVersion)
	}
	for i, rec := range f.Records {
		if err := rec.Validate(); err != nil {
			return nil, nil, fmt.Errorf("store: export record %d: %w", i, err)
		}
	}
	return f.Records, f.Stats, nil
}
