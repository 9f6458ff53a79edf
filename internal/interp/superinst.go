// Superinstruction support: the curated fusion pattern table applied by
// Decode, the structured fusion report (Code.FusionStats), and the
// pattern miner behind `brbench -superinst-report` that justifies the
// curated set from measured dynamic frequency — profile-guided
// optimization applied to the measurement loop itself.
package interp

import (
	"sort"

	"branchreorder/internal/ir"
)

// maxFuseLen is the longest curated pattern. The in-place fusion scheme
// supports any length: the fused opcode overwrites the run's first
// dinst, slots 1..n-1 keep their full original contents as the
// operand/charge source, and the dispatch case advances past all n (or
// performs the final op's transfer).
const maxFuseLen = 5

// fusedPattern is one curated superinstruction: the adjacent in-block
// opcode run seq collapses into the single dispatch op.
type fusedPattern struct {
	op  dop
	seq []dop
}

// fusedPatterns is the curated set. Selection is data-justified: these
// are the highest-weight dynamic runs mined from the 17-workload roster
// plus 40 random CFGs (`brbench -superinst-report`), with one
// structural restriction: Call may only be a pattern's final op,
// because execution resumes at the op after the call site and a return
// landing mid-pattern would skip the fused prefix. ProfCond may fuse —
// the fused body replicates the hook call at its original position in
// the effect order. Longer patterns shadow their prefixes in the greedy
// scan, so e.g. ld+add+st+cmpbr (the counter idiom `g[i]++` followed by
// a loop test) wins over ld+add where both apply.
var fusedPatterns = []fusedPattern{
	// Straight pairs.
	{opMovMov, []dop{opMov, opMov}},
	{opMovAdd, []dop{opMov, opAdd}},
	{opAddMov, []dop{opAdd, opMov}},
	{opAddAdd, []dop{opAdd, opAdd}},
	{opAddLd, []dop{opAdd, opLd}},
	{opLdAdd, []dop{opLd, opAdd}},
	{opAddSt, []dop{opAdd, opSt}},
	{opStAdd, []dop{opSt, opAdd}},
	{opPutCharAdd, []dop{opPutChar, opAdd}},
	{opSubMov, []dop{opSub, opMov}},
	{opEnterMov, []dop{opEnter, opMov}},
	// Compare-and-branch tails.
	{opAddCmpBr, []dop{opAdd, opCmpBr}},
	{opLdCmpBr, []dop{opLd, opCmpBr}},
	{opStCmpBr, []dop{opSt, opCmpBr}},
	{opMovCmpBr, []dop{opMov, opCmpBr}},
	{opGetCharCmpBr, []dop{opGetChar, opCmpBr}},
	{opXorCmpBr, []dop{opXor, opCmpBr}},
	{opShlCmpBr, []dop{opShl, opCmpBr}},
	// Jump tails.
	{opMovJump, []dop{opMov, opJump}},
	{opAddJump, []dop{opAdd, opJump}},
	// Call tail: the call is the final slot, so the saved return PC is
	// simply the end of the whole fused run.
	{opLdCall, []dop{opLd, opCall}},
	{opStSub, []dop{opSt, opSub}},
	// Triples.
	{opLdAddSt, []dop{opLd, opAdd, opSt}},
	{opAddLdAdd, []dop{opAdd, opLd, opAdd}},
	{opAddLdCmpBr, []dop{opAdd, opLd, opCmpBr}},
	{opAddLdCall, []dop{opAdd, opLd, opCall}},
	{opAddMovJump, []dop{opAdd, opMov, opJump}},
	{opStAddMov, []dop{opSt, opAdd, opMov}},
	{opPutCharAddJump, []dop{opPutChar, opAdd, opJump}},
	{opStMovJump, []dop{opSt, opMov, opJump}},
	{opMovAddMov, []dop{opMov, opAdd, opMov}},
	{opEnterMovMov, []dop{opEnter, opMov, opMov}},
	// Quads and quints: whole-idiom runs — counter increment + loop
	// test, the sort inner comparison (two indexed loads feeding a
	// compare call, then its result consumed), and wc's instrumented
	// bit-accumulator and classifier blocks.
	{opLdAddStCmpBr, []dop{opLd, opAdd, opSt, opCmpBr}},
	{opAddLdAddLd, []dop{opAdd, opLd, opAdd, opLd}},
	{opMovAddMovCmpBr, []dop{opMov, opAdd, opMov, opCmpBr}},
	{opAddLdAddLdCall, []dop{opAdd, opLd, opAdd, opLd, opCall}},
	{opAddAddAddLdSt, []dop{opAdd, opAdd, opAdd, opLd, opSt}},
	{opPcOrShlPcJump, []dop{opProfCond, opOr, opShl, opProfCond, opJump}},
	{opLdAddStMovJump, []dop{opLd, opAdd, opSt, opMov, opJump}},
	{opCmpMulCmpAndBr, []dop{opCmp, opMul, opCmp, opAnd, opBr}},
	// The tails and whole-blocks the block dump shows are still
	// multi-dispatch after the patterns above: sort's swap-and-advance
	// and putchar loops, its index-increment guard, and wc's line-count
	// update on the less-travelled arm.
	{opSubMovJump, []dop{opSub, opMov, opJump}},
	{opLdAddStJump, []dop{opLd, opAdd, opSt, opJump}},
	{opStAddMovJump, []dop{opSt, opAdd, opMov, opJump}},
	{opAddLdAddLdCmpBr, []dop{opAdd, opLd, opAdd, opLd, opCmpBr}},
	{opAddLdPutCharAddJump, []dop{opAdd, opLd, opPutChar, opAdd, opJump}},
}

// fuseTable maps an adjacent base-opcode pair to its fused opcode, or 0
// (opEnter, never a fusion result) for no fusion. fuseLonger marks
// pairs that begin at least one length-3/4 pattern, gating the (rarer)
// map lookups in the greedy scan; fuseLookup resolves those patterns.
var (
	fuseTable  [nBaseDop][nBaseDop]dop
	fuseLonger [nBaseDop][nBaseDop]bool
	fuseLookup = map[gram]dop{}
)

// baseDopName labels the unfused opcodes for reports.
var baseDopName = [nBaseDop]string{
	opEnter:    "enter",
	opMov:      "mov",
	opAdd:      "add",
	opSub:      "sub",
	opMul:      "mul",
	opDiv:      "div",
	opRem:      "rem",
	opAnd:      "and",
	opOr:       "or",
	opXor:      "xor",
	opShl:      "shl",
	opShr:      "shr",
	opNeg:      "neg",
	opNot:      "not",
	opCmp:      "cmp",
	opLd:       "ld",
	opSt:       "st",
	opGetChar:  "getchar",
	opPutChar:  "putchar",
	opPutInt:   "putint",
	opCall:     "call",
	opProf:     "prof",
	opProfCond: "profcond",
	opBr:       "br",
	opCmpBr:    "cmpbr",
	opJump:     "jump",
	opIJmp:     "ijmp",
	opRet:      "ret",
}

// fusedDopName labels fused opcodes ("add+ld+cmpbr") and fusedDopLen
// records each one's pattern length, both derived from the pattern list.
var (
	fusedDopName = map[dop]string{}
	fusedDopLen  = map[dop]int{}
)

func init() {
	for _, p := range fusedPatterns {
		g := patGram(p.seq)
		switch len(p.seq) {
		case 2:
			fuseTable[p.seq[0]][p.seq[1]] = p.op
		default:
			fuseLonger[p.seq[0]][p.seq[1]] = true
			fuseLookup[g] = p.op
		}
		fusedDopName[p.op] = g.String()
		fusedDopLen[p.op] = len(p.seq)
	}
}

func patGram(seq []dop) gram {
	g := gram{n: uint8(len(seq))}
	copy(g.ops[:], seq)
	return g
}

// FusionStats summarizes superinstruction fusion over a decoded body:
// how many dispatch slots it has pre-fusion, how many superinstruction
// sites were formed, how many original ops those sites absorb, and the
// per-pattern site counts.
type FusionStats struct {
	// Ops is the number of decoded dispatch slots before fusion. Fusion
	// never changes it: a fused run still occupies all its slots, it
	// just dispatches once.
	Ops int `json:"ops"`

	// Fused is the number of superinstruction sites. Each saves its
	// pattern length minus one dispatches per execution.
	Fused int `json:"fused"`

	// Inside is the number of original ops absorbed into
	// superinstructions (the sum of pattern lengths over sites).
	Inside int `json:"inside"`

	// Patterns maps pattern label ("add+ld+cmpbr") to static site count.
	Patterns map[string]int `json:"patterns,omitempty"`
}

// StaticCoverage is the percentage of decoded ops that are part of a
// superinstruction.
func (s *FusionStats) StaticCoverage() float64 {
	if s.Ops == 0 {
		return 0
	}
	return 100 * float64(s.Inside) / float64(s.Ops)
}

// Merge accumulates o into s.
func (s *FusionStats) Merge(o *FusionStats) {
	s.Ops += o.Ops
	s.Fused += o.Fused
	s.Inside += o.Inside
	for k, v := range o.Patterns {
		if s.Patterns == nil {
			s.Patterns = make(map[string]int)
		}
		s.Patterns[k] += v
	}
}

// FuncFusion is one function's slice of the fusion report.
type FuncFusion struct {
	Name string `json:"name"`
	FusionStats
}

// FusionStats reports whole-program fusion totals for the decoded code.
// All zeroes when the code was decoded with Fuse off.
func (c *Code) FusionStats() FusionStats {
	var total FusionStats
	for i := range c.funcs {
		fs := funcFusion(&c.funcs[i])
		total.Merge(&fs)
	}
	return total
}

// FusionByFunc reports fusion per function, in program order.
func (c *Code) FusionByFunc() []FuncFusion {
	out := make([]FuncFusion, len(c.funcs))
	for i := range c.funcs {
		out[i] = FuncFusion{Name: c.funcs[i].name, FusionStats: funcFusion(&c.funcs[i])}
	}
	return out
}

func funcFusion(df *dfunc) FusionStats {
	fs := FusionStats{Ops: len(df.code)}
	for i := 0; i < len(df.code); {
		op := df.code[i].op
		if op < nBaseDop {
			i++
			continue
		}
		n := fusedDopLen[op]
		fs.Fused++
		fs.Inside += n
		if fs.Patterns == nil {
			fs.Patterns = make(map[string]int)
		}
		fs.Patterns[fusedDopName[op]]++
		i += n
	}
	return fs
}

// ---- pattern miner ----

// gram is an adjacent decoded-op sequence of length n (2..maxFuseLen)
// from the unfused stream.
type gram struct {
	n   uint8
	ops [maxFuseLen]dop
}

func (g gram) String() string {
	s := baseDopName[g.ops[0]]
	for i := 1; i < int(g.n); i++ {
		s += "+" + baseDopName[g.ops[i]]
	}
	return s
}

// PatternCount is one row of a ranked mining report.
type PatternCount struct {
	Pattern string  `json:"pattern"`
	Count   uint64  `json:"count"`
	Share   float64 `json:"share"` // % of all dynamic dispatches
}

// MineResult accumulates dynamic adjacent-op n-gram weights across
// programs. Weights are dynamic: every block's static op run counts
// once per execution of the block (observed via Machine.OnBlock on the
// reference interpreter), which is exactly the number of dispatches the
// fast engine would spend on it.
type MineResult struct {
	dispatches uint64          // total dynamic dispatches observed
	saved      uint64          // dispatches the curated set eliminates
	inside     uint64          // dispatches folded inside superinstructions
	grams      map[gram]uint64 // all adjacent runs of length 2..maxFuseLen
	matches    map[gram]uint64 // greedy matches of the curated set
	residual   map[dop]uint64  // dispatches left outside any match, by op
}

// NewMineResult returns an empty accumulator.
func NewMineResult() *MineResult {
	return &MineResult{
		grams:    make(map[gram]uint64),
		matches:  make(map[gram]uint64),
		residual: make(map[dop]uint64),
	}
}

// Mine runs p on the reference interpreter (so the measured fast path
// stays instrumentation-free), weights each block's unfused decoded op
// run by its execution count, and accumulates n-grams plus the curated
// set's greedy match counts. Runtime traps and step-limit aborts still
// leave usable weights — random CFGs trap often — so only decode
// failures are reported. maxSteps of 0 means DefaultMaxSteps.
func (r *MineResult) Mine(p *ir.Program, input []byte, maxSteps uint64) error {
	code, err := DecodeWith(p, DecodeOptions{})
	if err != nil {
		return err
	}
	fi := make(map[string]int, len(p.Funcs))
	counts := make([][]uint64, len(p.Funcs))
	for i, f := range p.Funcs {
		fi[f.Name] = i
		counts[i] = make([]uint64, len(f.Blocks))
	}
	m := &Machine{Prog: p, Input: input, MaxSteps: maxSteps}
	m.OnBlock = func(fn string, li int) { counts[fi[fn]][li]++ }
	m.Run()
	for i := range code.funcs {
		df := &code.funcs[i]
		for bi := 0; bi+1 < len(df.blockStart); bi++ {
			w := counts[i][bi]
			if w == 0 {
				continue
			}
			lo, hi := int(df.blockStart[bi]), int(df.blockStart[bi+1])
			r.dispatches += w * uint64(hi-lo)
			for j := lo; j < hi-1; j++ {
				for n := 2; n <= maxFuseLen && j+n <= hi; n++ {
					g := gram{n: uint8(n)}
					for k := 0; k < n; k++ {
						g.ops[k] = df.code[j+k].op
					}
					r.grams[g] += w
				}
			}
			// Replay the decoder's greedy longest-first fusion scan to
			// measure what the curated set actually captures (overlaps
			// excluded, long patterns shadowing their prefixes).
			for j := lo; j < hi; {
				var g gram
				n := 0
				if j+1 < hi {
					g, n = matchFusion(df.code, j, hi)
				}
				if n == 0 {
					r.residual[df.code[j].op] += w
					j++
					continue
				}
				r.matches[g] += w
				r.saved += w * uint64(n-1)
				r.inside += w * uint64(n)
				j += n
			}
		}
	}
	return nil
}

// matchFusion returns the longest curated pattern starting at code[j]
// within the run ending at hi, as (gram, length), or length 0.
func matchFusion(code []dinst, j, hi int) (gram, int) {
	a, b := code[j].op, code[j+1].op
	if fuseLonger[a][b] {
		for n := maxFuseLen; n > 2; n-- {
			if j+n > hi {
				continue
			}
			g := gram{n: uint8(n)}
			for k := 0; k < n; k++ {
				g.ops[k] = code[j+k].op
			}
			if _, ok := fuseLookup[g]; ok {
				return g, n
			}
		}
	}
	if fuseTable[a][b] != 0 {
		return gram{n: 2, ops: [maxFuseLen]dop{a, b}}, 2
	}
	return gram{}, 0
}

// Merge accumulates o into r.
func (r *MineResult) Merge(o *MineResult) {
	r.dispatches += o.dispatches
	r.saved += o.saved
	r.inside += o.inside
	for g, w := range o.grams {
		r.grams[g] += w
	}
	for g, w := range o.matches {
		r.matches[g] += w
	}
	for op, w := range o.residual {
		r.residual[op] += w
	}
}

// Residual ranks the dispatches the curated set leaves unfused, by
// opcode — the to-do list for the next curation round.
func (r *MineResult) Residual(limit int) []PatternCount {
	rows := make([]PatternCount, 0, len(r.residual))
	for op, w := range r.residual {
		share := 0.0
		if r.dispatches > 0 {
			share = 100 * float64(w) / float64(r.dispatches)
		}
		rows = append(rows, PatternCount{Pattern: baseDopName[op], Count: w, Share: share})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Pattern < rows[j].Pattern
	})
	if len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

// Dispatches is the total dynamic dispatch count observed.
func (r *MineResult) Dispatches() uint64 { return r.dispatches }

// DynamicCoverage is the percentage of dynamic dispatches that the
// curated set folds into superinstructions.
func (r *MineResult) DynamicCoverage() float64 {
	if r.dispatches == 0 {
		return 0
	}
	return 100 * float64(r.inside) / float64(r.dispatches)
}

// DispatchReduction is the percentage of dynamic dispatches eliminated
// (pattern length minus one per match).
func (r *MineResult) DispatchReduction() float64 {
	if r.dispatches == 0 {
		return 0
	}
	return 100 * float64(r.saved) / float64(r.dispatches)
}

// TopGrams ranks the mined length-n grams by dynamic weight (count
// descending, then label ascending — deterministic), up to limit rows.
func (r *MineResult) TopGrams(n, limit int) []PatternCount {
	return r.rank(r.grams, n, limit)
}

// CuratedDynamic ranks the curated set's greedy match counts, all
// pattern lengths together.
func (r *MineResult) CuratedDynamic() []PatternCount {
	return r.rank(r.matches, 0, len(r.matches))
}

// rank filters src to length-n grams (any length when n is 0) and sorts.
func (r *MineResult) rank(src map[gram]uint64, n, limit int) []PatternCount {
	rows := make([]PatternCount, 0, len(src))
	for g, w := range src {
		if n != 0 && int(g.n) != n {
			continue
		}
		share := 0.0
		if r.dispatches > 0 {
			share = 100 * float64(w) / float64(r.dispatches)
		}
		rows = append(rows, PatternCount{Pattern: g.String(), Count: w, Share: share})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Pattern < rows[j].Pattern
	})
	if len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}
