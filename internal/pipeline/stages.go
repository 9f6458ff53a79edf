package pipeline

import (
	"fmt"
	"io"

	"branchreorder/internal/core"
	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/opt"
	"branchreorder/internal/profile"
)

// The staged build pipeline: the only implementation of the paper's
// Figure 2 scheme. Build, StageCache.Build and both passes of brcc's
// file-based workflow all compose the same three stages:
//
//	stage 1 (frontend):     lex/parse/lower/opt — keyed by the source and
//	                        the lowering-relevant options (Switch,
//	                        Optimize). Product: an immutable ir.Program.
//	stage 2 (detect+train): sequence/common-successor detection,
//	                        instrumentation, and the training run — keyed
//	                        by (frontend key, training input,
//	                        CommonSuccessor). Product: the serializable
//	                        profile counts.
//	stage 3 (finalize):     ordering selection, transformation, cleanup,
//	                        delay slots — the only stage that depends on
//	                        the full TransformOptions. Never cached: it is
//	                        cheap and every variant differs.
//
// Detection is deterministic, so stages 2 and 3 re-detect identical
// sequences (same IDs, same arms) on fresh clones of the stage-1 program;
// the counts stage 2 collects line up index-for-index with the arms stage
// 3 rebuilds. That separate-compilation discipline is what lets the
// profile cross a process boundary (WriteProfile/ReadProfile) or come
// from a store record; finalize checks the product against what it
// re-detects and rejects any mismatch.

// FrontendOptions is the subset of Options that determines the stage-1
// product. It is comparable, so it can key caches directly.
type FrontendOptions struct {
	Switch   lower.HeuristicSet `json:"switch"`
	Optimize bool               `json:"optimize"`
}

// Frontend returns the lowering-relevant subset of o — the stage-1 key.
func (o Options) Frontend() FrontendOptions {
	return FrontendOptions{Switch: o.Switch, Optimize: o.Optimize}
}

// DetectOptions is the subset of Options (beyond the frontend's) that
// determines the stage-2 product. The profile configuration belongs
// here: sampled or biased counts are a different product than exact
// ones, so they must never share a stage-2 key or store fingerprint.
type DetectOptions struct {
	CommonSuccessor bool           `json:"commonSuccessor"`
	Profile         profile.Config `json:"profile"`
}

// Detection returns the detection-relevant subset of o — the stage-2 key
// (combined with the frontend key and the training input).
func (o Options) Detection() DetectOptions {
	return DetectOptions{CommonSuccessor: o.CommonSuccessor, Profile: o.Profile}
}

// FrontendProduct is the cached stage-1 result. Prog is immutable by
// contract: every consumer must ir.CloneProgram it before mutating
// (detection instruments blocks in place, reordering rewrites them).
// Finalize hands it out as BuildResult.Baseline under the same contract.
// SwitchKinds is likewise shared and must be treated as read-only.
type FrontendProduct struct {
	Prog        *ir.Program
	SwitchKinds map[lower.SwitchKind]int
}

// BuildFrontend runs stage 1: parse, check, lower, optimize, linearize,
// verify. The result is the paper's "all conventional optimizations
// applied" baseline, wrapped as an immutable product.
func BuildFrontend(src string, fo FrontendOptions) (*FrontendProduct, error) {
	res, err := Frontend(src, Options{Switch: fo.Switch, Optimize: fo.Optimize})
	if err != nil {
		return nil, err
	}
	return &FrontendProduct{Prog: res.Prog, SwitchKinds: res.SwitchKinds}, nil
}

// TrainProduct is the cached stage-2 result: the training-run counts for
// every detected sequence, plus the detection shape they were collected
// under so a finalize against a diverging detector fails loudly instead
// of silently misattributing counts. It is plain data — serializable,
// safe to share between concurrent finalizes, and convertible to a
// content-addressed store record.
type TrainProduct struct {
	SeqProfiles   map[int]*core.SeqProfile
	OrSeqProfiles map[int]*core.OrSeqProfile
	// NumSeqs and NumOrSeqs record how many sequences the detector found
	// (counts exist only for executed sequences, so map sizes are not
	// enough to validate against).
	NumSeqs   int
	NumOrSeqs int
}

// WriteProfile serializes a training product as the profile data file
// the paper's Figure 2 stores between its two passes: one line per
// sequence in the core.Profile text format. Stage 2 allocates counts for
// every detected sequence, so the file names each one, executed or not.
func WriteProfile(w io.Writer, tp *TrainProduct) error {
	if err := (&core.Profile{Seqs: tp.SeqProfiles}).Write(w); err != nil {
		return err
	}
	return (&core.OrProfile{Seqs: tp.OrSeqProfiles}).Write(w)
}

// ReadProfile parses a profile data file written by WriteProfile back
// into a training product. The detection shape is the number of seq and
// orseq lines; FinalizeStages checks it, and every ID, against what it
// re-detects.
func ReadProfile(r io.Reader) (*TrainProduct, error) {
	seqs, orSeqs, err := core.ReadProfiles(r)
	if err != nil {
		return nil, err
	}
	return &TrainProduct{
		SeqProfiles:   seqs,
		OrSeqProfiles: orSeqs,
		NumSeqs:       len(seqs),
		NumOrSeqs:     len(orSeqs),
	}, nil
}

// profHook fuses the range- and or-profile hooks into the single OnProf
// callback the interpreter dispatches. Most builds have no
// common-successor sequences (the extension is off for the
// paper-fidelity experiments), so the merged two-closure dispatch is
// skipped whenever either side has nothing to count.
func profHook(prof *core.Profile, orProf *core.OrProfile) func(seqID, sub int, v int64) {
	rangeHook, orHook := prof.Hook(), orProf.Hook()
	switch {
	case len(prof.Seqs) == 0 && len(orProf.Seqs) == 0:
		return nil
	case len(orProf.Seqs) == 0:
		return rangeHook
	case len(prof.Seqs) == 0:
		return orHook
	default:
		return func(seqID, sub int, v int64) {
			rangeHook(seqID, sub, v)
			orHook(seqID, sub, v)
		}
	}
}

// detected is a fresh clone of a frontend program with both sequence
// kinds detected and instrumented in place.
type detected struct {
	prog   *ir.Program
	seqs   []*core.Sequence
	orSeqs []*core.OrSequence
}

// detect is the detection both stage 2 and stage 3 run: range-condition
// sequences with their arms, then (with commonSucc) common-successor
// sequences over the blocks those left unclaimed, then the
// post-instrumentation linearize and verify. Running the same steps on
// the same frontend program is what keeps sequence IDs and arms aligned
// across the two stages.
func detect(front *FrontendProduct, commonSucc bool) (*detected, error) {
	d := &detected{prog: ir.CloneProgram(front.Prog)}
	d.seqs = core.Detect(d.prog, 0)
	for _, s := range d.seqs {
		s.BuildArms()
	}
	if commonSucc {
		d.orSeqs = core.DetectCommonSucc(d.prog, len(d.seqs), consumedBlocks(d.seqs))
	}
	d.prog.Linearize()
	if err := d.prog.Verify(); err != nil {
		return nil, fmt.Errorf("verify after instrumentation: %w", err)
	}
	return d, nil
}

// consumedBlocks collects the blocks claimed by range-condition
// sequences, which take precedence over the common-successor extension.
func consumedBlocks(seqs []*core.Sequence) map[*ir.Block]bool {
	consumed := map[*ir.Block]bool{}
	for _, s := range seqs {
		consumed[s.Head] = true
		for _, c := range s.Conds {
			for _, b := range c.Blocks {
				consumed[b] = true
			}
		}
	}
	return consumed
}

// TrainStage runs stage 2 on a clone of the frontend product: detect
// both sequence kinds, instrument, and execute the training input.
func TrainStage(front *FrontendProduct, train []byte, d DetectOptions) (*TrainProduct, error) {
	return TrainStageWith(front, train, d, interp.EngineFast)
}

// TrainStageWith is TrainStage on an explicit execution engine. All
// engines replay the exact same OnProf hook sequence, so the collected
// profile — and every build derived from it — is byte-identical for any
// choice; only the training run's wall-clock changes.
func TrainStageWith(front *FrontendProduct, train []byte, d DetectOptions, e interp.Engine) (*TrainProduct, error) {
	det, err := detect(front, d.CommonSuccessor)
	if err != nil {
		return nil, err
	}
	prof := core.NewProfile(det.seqs)
	orProf := core.NewOrProfile(det.orSeqs)
	code, err := interp.Decode(det.prog)
	if err != nil {
		return nil, fmt.Errorf("training run: %w", err)
	}
	// The sampler thins the event stream per d.Profile and scales the
	// surviving counts back to exact shape after the run; a zero config
	// leaves the hook untouched.
	sampler := profile.NewSampler(d.Profile, prof, orProf)
	if _, _, _, err := interp.Exec(e, det.prog, code, train, nil, sampler.Hook(profHook(prof, orProf))); err != nil {
		return nil, fmt.Errorf("training run: %w", err)
	}
	sampler.Scale()
	return &TrainProduct{
		SeqProfiles:   prof.Seqs,
		OrSeqProfiles: orProf.Seqs,
		NumSeqs:       len(det.seqs),
		NumOrSeqs:     len(det.orSeqs),
	}, nil
}

// FinalizeStages runs stage 3 on a fresh clone of the frontend product:
// re-detect the (identical) sequences, check the training product
// against them, select and apply orderings, clean up, fill delay slots.
// A product whose shape, IDs or per-sequence counts disagree with the
// re-detected sequences — a profile file or store record from another
// source or configuration — is rejected, never silently misattributed.
func FinalizeStages(front *FrontendProduct, tp *TrainProduct, o Options) (*BuildResult, error) {
	det, err := detect(front, o.CommonSuccessor)
	if err != nil {
		return nil, err
	}
	if len(det.seqs) != tp.NumSeqs || len(det.orSeqs) != tp.NumOrSeqs {
		return nil, fmt.Errorf("stage mismatch: finalize detected %d/%d sequences, training saw %d/%d "+
			"(was the profile produced from the same source and options?)",
			len(det.seqs), len(det.orSeqs), tp.NumSeqs, tp.NumOrSeqs)
	}
	// Detect numbers range sequences 0..n-1 and or-sequences after them.
	for id := range tp.SeqProfiles {
		if id < 0 || id >= len(det.seqs) {
			return nil, fmt.Errorf("stage mismatch: profile names sequence %d, which was not detected", id)
		}
	}
	for id := range tp.OrSeqProfiles {
		if id < len(det.seqs) || id >= len(det.seqs)+len(det.orSeqs) {
			return nil, fmt.Errorf("stage mismatch: profile names or-sequence %d, which was not detected", id)
		}
	}
	kinds := make(map[lower.SwitchKind]int, len(front.SwitchKinds))
	for k, v := range front.SwitchKinds {
		kinds[k] = v
	}
	out := &BuildResult{
		Baseline:    front.Prog,
		SwitchKinds: kinds,
		Sequences:   det.seqs,
		OrSequences: det.orSeqs,
		Profile:     &core.Profile{Seqs: tp.SeqProfiles},
		OrProfile:   &core.OrProfile{Seqs: tp.OrSeqProfiles},
	}
	for _, s := range det.seqs {
		sp := tp.SeqProfiles[s.ID]
		if sp != nil && len(sp.Counts) != len(s.Arms) {
			return nil, fmt.Errorf("stage mismatch: profile for sequence %d has %d counts, expected %d",
				s.ID, len(sp.Counts), len(s.Arms))
		}
		out.Results = append(out.Results, core.ReorderWith(s, sp, o.Transform))
	}
	for _, s := range det.orSeqs {
		sp := tp.OrSeqProfiles[s.ID]
		if sp != nil && sp.N != len(s.Conds) {
			return nil, fmt.Errorf("stage mismatch: profile for or-sequence %d has %d conditions, expected %d",
				s.ID, sp.N, len(s.Conds))
		}
		out.OrResults = append(out.OrResults, core.ReorderOr(s, sp))
	}
	prog := det.prog
	core.StripProf(prog)
	opt.Program(prog)
	prog.Linearize()
	prog.FillDelaySlots()
	if err := prog.Verify(); err != nil {
		return nil, fmt.Errorf("verify after reordering: %w", err)
	}
	out.Reordered = prog
	return out, nil
}
