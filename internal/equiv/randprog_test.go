package equiv

import (
	"strings"
	"testing"

	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/randprog"
	"branchreorder/internal/workload"
)

// randMaxSteps bounds random-program runs: generated CFGs loop freely,
// and the step-limit path is itself part of the contract under test.
const randMaxSteps = 1 << 15

type engineRun struct {
	ret      int64
	err      string
	out      string
	stats    interp.Stats
	branches []int64
	profs    []int64
}

func hooks(r *engineRun) (func(int, bool), func(int, int, int64)) {
	return func(id int, taken bool) {
			tk := int64(0)
			if taken {
				tk = 1
			}
			r.branches = append(r.branches, int64(id), tk)
		}, func(seq, sub int, v int64) {
			r.profs = append(r.profs, int64(seq), int64(sub), v)
		}
}

// runBoth executes p on both engines and both decodes: the reference
// machine against the fast engine under the lenient contract
// (compareRuns, applied by the caller), and the fused fast engine
// against the unfused one under strict identity (compareSame).
func runBoth(t testing.TB, p *ir.Program, input []byte) (ref, fast engineRun) {
	ref = runOn(t, p, input, nil)
	fast = runOn(t, p, input, &interp.DecodeOptions{Fuse: true})
	// The unfused decode must behave identically to the fused one; any
	// divergence is a fusion bug, caught here across every seed and every
	// fuzz input the suite explores.
	compareSame(t, "fused-vs-unfused", fast, runOn(t, p, input, &interp.DecodeOptions{}))
	return ref, fast
}

// runOn executes p once with the branch/prof recorders attached: on the
// reference machine when opts is nil, else on the fast engine over a
// decode with opts.
func runOn(t testing.TB, p *ir.Program, input []byte, opts *interp.DecodeOptions) (r engineRun) {
	t.Helper()
	onBranch, onProf := hooks(&r)
	var ret int64
	var err error
	if opts == nil {
		m := &interp.Machine{Prog: p, Input: input, MaxSteps: randMaxSteps,
			OnBranch: onBranch, OnProf: onProf}
		ret, err = m.Run()
		r.ret, r.out, r.stats = ret, m.Output.String(), m.Stats
	} else {
		code, derr := interp.DecodeWith(p, *opts)
		if derr != nil {
			t.Fatalf("decode: %v", derr)
		}
		m := &interp.FastMachine{Code: code, Input: input, MaxSteps: randMaxSteps,
			OnBranch: onBranch, OnProf: onProf}
		ret, err = m.Run()
		r.ret, r.out, r.stats = ret, m.Output.String(), m.Stats
	}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

func eqInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareRuns applies the engine contract: completed runs agree on
// everything; trapped runs agree on the error, except around a step-limit
// abort, where the fast engine's block-granular budget may surface as a
// different abort point (both sides must still abort).
func compareRuns(t testing.TB, label string, ref, fast engineRun) {
	t.Helper()
	stepLimited := strings.Contains(ref.err, "step limit") || strings.Contains(fast.err, "step limit")
	if stepLimited {
		if ref.err == "" || fast.err == "" {
			t.Errorf("%s: step-limit abort on one engine only: ref=%q fast=%q",
				label, ref.err, fast.err)
		}
		return
	}
	if ref.err != fast.err {
		t.Errorf("%s: errors differ: ref=%q fast=%q", label, ref.err, fast.err)
		return
	}
	// Same trap (or none): the executed effect sequence is identical.
	if ref.ret != fast.ret && ref.err == "" {
		t.Errorf("%s: ret ref=%d fast=%d", label, ref.ret, fast.ret)
	}
	if ref.out != fast.out {
		t.Errorf("%s: output ref=%q fast=%q", label, ref.out, fast.out)
	}
	if !eqInt64s(ref.branches, fast.branches) {
		t.Errorf("%s: branch streams differ (%d vs %d events)",
			label, len(ref.branches)/2, len(fast.branches)/2)
	}
	if !eqInt64s(ref.profs, fast.profs) {
		t.Errorf("%s: prof streams differ", label)
	}
	// Stats are only exact on completed runs (trap-point charges are
	// block-granular on the fast engine).
	if ref.err == "" && ref.stats != fast.stats {
		t.Errorf("%s: stats\nref:  %+v\nfast: %+v", label, ref.stats, fast.stats)
	}
}

// compareSame demands full identity — return value, output, error text
// (trap kind and PC included), hook streams, and Stats even at trap
// points. Fused and unfused decodes share one execution contract down
// to the block-granular step budget, so unlike compareRuns nothing is
// forgiven.
func compareSame(t testing.TB, label string, fused, unfused engineRun) {
	t.Helper()
	if fused.err != unfused.err {
		t.Errorf("%s: errors differ: fused=%q unfused=%q", label, fused.err, unfused.err)
		return
	}
	if fused.ret != unfused.ret {
		t.Errorf("%s: ret fused=%d unfused=%d", label, fused.ret, unfused.ret)
	}
	if fused.out != unfused.out {
		t.Errorf("%s: output fused=%q unfused=%q", label, fused.out, unfused.out)
	}
	if fused.stats != unfused.stats {
		t.Errorf("%s: stats\nfused:   %+v\nunfused: %+v", label, fused.stats, unfused.stats)
	}
	if !eqInt64s(fused.branches, unfused.branches) {
		t.Errorf("%s: branch streams differ (%d vs %d events)",
			label, len(fused.branches)/2, len(unfused.branches)/2)
	}
	if !eqInt64s(fused.profs, unfused.profs) {
		t.Errorf("%s: prof streams differ", label)
	}
}

// TestRandomProgramEquivalence fuzzes the engines against each other
// with generated CFGs and adversarial inputs.
func TestRandomProgramEquivalence(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 60
	}
	completed := 0
	for seed := 0; seed < n; seed++ {
		p := randprog.New(uint64(seed))
		for _, input := range [][]byte{nil, workload.FuzzInput(uint64(seed)+1000, 200)} {
			ref, fast := runBoth(t, p, input)
			compareRuns(t, labelFor(seed, input), ref, fast)
			if ref.err == "" {
				completed++
			}
		}
	}
	// The generator must keep producing runs that complete, or the
	// strong (stats-comparing) arm of the contract goes untested.
	if completed < n/5 {
		t.Errorf("only %d/%d runs completed; generator too trap-happy", completed, 2*n)
	}
}

func labelFor(seed int, input []byte) string {
	tag := "nil"
	if input != nil {
		tag = "fuzz"
	}
	return "seed=" + itoa(seed) + "/" + tag
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// FuzzEngines explores program and input space beyond the fixed seeds.
func FuzzEngines(f *testing.F) {
	f.Add(uint64(1), []byte("hello\n42 "))
	f.Add(uint64(77), []byte{0, 255, '\n'})
	f.Add(uint64(123456), []byte("a-b c.d 9/0"))
	// Seeds whose generated CFGs exercise superinstruction edge shapes:
	// dense straight-line blocks (multi-pair fusion runs), fused pairs
	// whose second op traps (division by zero, out-of-range Ld/St), and
	// branch back-edges into fused blocks.
	f.Add(uint64(7), []byte("0 0 0"))
	f.Add(uint64(42), []byte("9/0"))
	f.Add(uint64(2026), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(31337), []byte("-1 -1"))
	f.Fuzz(func(t *testing.T, seed uint64, input []byte) {
		if len(input) > 4096 {
			input = input[:4096]
		}
		p := randprog.New(seed)
		ref, fast := runBoth(t, p, input)
		compareRuns(t, "fuzz", ref, fast)
	})
}
