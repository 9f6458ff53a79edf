// Package equiv differentially tests the two execution engines against
// each other: the block-walking reference interpreter (interp.Machine)
// and the flat-decoded fast engine (interp.DecodeWith +
// interp.FastMachine) that the measurement pipeline runs on, with and
// without superinstruction fusion.
//
// The contract under test is the one DESIGN.md states for the fast
// engine: on every program and input, both engines produce the same
// return value, output bytes, dynamic statistics, branch and profile
// event streams — and therefore the same per-predictor mispredict
// counts — whenever the run completes. Runs that trap must trap with
// the same runtime error, except that a step-limit abort is only
// required to be a step-limit-or-later abort on both sides (the fast
// engine charges the step budget block-granularly, so the abort point
// and hence partial output and statistics may differ).
//
// Fusion is held to a stricter contract: the fused and unfused decodes
// share one block-granular execution model, so everything must be
// identical between them — trap text and PC, trap-point statistics,
// and hook streams included — and a measurement through
// sim.Options{NoFuse: true} must equal the fused one exactly.
//
// Two test layers enforce this: the full workload suite (baseline and
// reordered executables, measured end-to-end through sim.Run against a
// replica of the pre-rewrite measurement loop and against the unfused
// decode), and randomized IR programs from a CFG generator, on held-out
// and fuzzed inputs, with a go-fuzz entry point (FuzzEngines) for
// continued exploration.
package equiv
