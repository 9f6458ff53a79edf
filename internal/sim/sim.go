// Package sim measures an executable the way the paper's evaluation does:
// one interpreted run collects the dynamic instruction mix, feeds every
// branch to a battery of predictors (Tables 5 and 6), and derives cycle
// counts for each machine model (Table 7).
package sim

import (
	"fmt"

	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/machine"
	"branchreorder/internal/predictor"
)

// PredictorSweep is the (0,1)/(0,2) × 32..2048 battery of Table 6.
func PredictorSweep() []*predictor.Bimodal {
	var out []*predictor.Bimodal
	for _, bits := range []int{1, 2} {
		for entries := 32; entries <= 2048; entries *= 2 {
			out = append(out, predictor.NewBimodal(bits, entries))
		}
	}
	return out
}

// Measurement is the result of running one executable on one input.
type Measurement struct {
	Stats  interp.Stats
	Output string
	Ret    int64

	// Mispredicts maps predictor name (e.g. "(0,2)x2048") to the number
	// of mispredicted conditional branches.
	Mispredicts map[string]uint64

	// Cycles maps machine name to modelled execution cycles.
	Cycles map[string]uint64

	// Fusion reports the executable's superinstruction fusion (all zero
	// when decoded with fusion off). It describes the measurement
	// engine, not the measured program: Stats/Cycles are identical
	// either way.
	Fusion interp.FusionStats
}

// Options configures how a measurement executes. The zero value is the
// default fused configuration. Options never enters result
// fingerprints: results are identical either way.
type Options struct {
	// NoFuse decodes without superinstruction fusion, the differential
	// oracle for fused execution. Results are byte-identical either
	// way; only wall-clock and Fusion change.
	NoFuse bool
}

// Run executes prog on input, simulating the given predictors (pass nil
// for the full Table 6 sweep) and deriving cycles for every machine model.
//
// Execution is on the flat-decoded fast engine (interp.DecodeWith +
// interp.FastMachine). With the default sweep the whole predictor battery
// is simulated by one predictor.Bank pass per branch instead of 14
// separate Bimodal observations, and the bank knows the program's branch
// IDs (0..NextBranchID()-1), so it updates one table per alias class;
// explicit predictors keep the Bimodal fan-out so tests can instrument
// individual tables.
func Run(prog *ir.Program, input []byte, preds []*predictor.Bimodal) (*Measurement, error) {
	return RunWith(prog, input, preds, Options{})
}

// RunWith is Run with explicit execution options.
func RunWith(prog *ir.Program, input []byte, preds []*predictor.Bimodal, opts Options) (*Measurement, error) {
	var bank *predictor.Bank
	var onBranch func(id int, taken bool)
	if preds == nil {
		bank = predictor.NewBankFor(predictor.Table6Specs(), prog.NextBranchID())
		onBranch = bank.Observe
	} else {
		for _, p := range preds {
			p.Reset()
		}
		onBranch = func(id int, taken bool) {
			for _, p := range preds {
				p.Observe(id, taken)
			}
		}
	}
	code, err := interp.DecodeWith(prog, interp.DecodeOptions{Fuse: !opts.NoFuse})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	m := &interp.FastMachine{Code: code, Input: input, OnBranch: onBranch}
	ret, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cfgs := machine.All()
	out := &Measurement{
		Stats:  m.Stats,
		Output: m.Output.String(),
		Ret:    ret,
		Cycles: make(map[string]uint64, len(cfgs)),
		Fusion: code.FusionStats(),
	}
	if bank != nil {
		out.Mispredicts = bank.Mispredicts()
	} else {
		out.Mispredicts = make(map[string]uint64, len(preds))
		for _, p := range preds {
			out.Mispredicts[p.Name()] = p.Mispredicts
		}
	}
	for _, cfg := range cfgs {
		out.Cycles[cfg.Name] = Cycles(cfg, out.Stats, out.Mispredicts)
	}
	return out, nil
}

// Cycles evaluates the machine timing model over a run's statistics.
func Cycles(cfg machine.Config, st interp.Stats, mispreds map[string]uint64) uint64 {
	cycles := st.Insts + st.IndirectJumps*cfg.IJmpExtra
	if cfg.DelaySlots {
		cycles += st.SlotNops
	}
	if cfg.StaticPipeline {
		cycles += st.TakenBranches * cfg.BranchPenalty
	} else {
		name := cfg.PredictorName
		if name == "" {
			name = fmt.Sprintf("(0,%d)x%d", cfg.PredictorBits, cfg.PredictorEntries)
		}
		cycles += mispreds[name] * cfg.BranchPenalty
	}
	return cycles
}
