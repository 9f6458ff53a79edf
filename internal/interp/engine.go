package interp

import "branchreorder/internal/ir"

// Engine names one of the package's execution backends. Both engines
// are observably equivalent — same Stats, Output, return value, hook
// sequences and traps — so the choice never affects results, only
// wall-clock speed. The zero value is the fast interpreter, the
// package's default backend.
type Engine int

const (
	// EngineFast is the flat-decoded direct interpreter (FastMachine).
	EngineFast Engine = iota
	// EngineReference is the block-walking reference interpreter
	// (Machine), the slow semantic baseline.
	EngineReference
)

func (e Engine) String() string {
	if e == EngineReference {
		return "reference"
	}
	return "fast"
}

// Exec runs prog once under the selected engine with the given hooks
// and returns the run's result, statistics and program output. The
// reference engine walks prog directly; the fast engine executes code,
// decoding prog (with fusion) when code is nil. Exec is the one-shot
// form shared by training runs, auto-evaluation and CLI execution;
// callers that reuse machines or need fusion reports construct the
// machines themselves.
func Exec(e Engine, prog *ir.Program, code *Code, input []byte,
	onBranch func(id int, taken bool), onProf func(seqID, sub int, value int64)) (int64, Stats, []byte, error) {
	if e == EngineReference {
		m := &Machine{Prog: prog, Input: input, OnBranch: onBranch, OnProf: onProf}
		ret, err := m.Run()
		return ret, m.Stats, m.Output.Bytes(), err
	}
	if code == nil {
		var err error
		code, err = Decode(prog)
		if err != nil {
			return 0, Stats{}, nil, err
		}
	}
	m := &FastMachine{Code: code, Input: input, OnBranch: onBranch, OnProf: onProf}
	ret, err := m.Run()
	return ret, m.Stats, m.Output.Bytes(), err
}
