package predictor_test

import (
	"math/rand"
	"testing"

	"branchreorder/internal/predictor"
	"branchreorder/internal/sim"
)

// lcg gives the tests a deterministic branch stream.
type lcg struct{ s uint64 }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 33
}

// TestBankMatchesBimodals drives the Table-6 bank and the 14 individual
// Bimodal predictors with the same stream and demands bit-identical
// mispredict counts — the property that lets sim.Run swap the fan-out
// for a single Observe per branch.
func TestBankMatchesBimodals(t *testing.T) {
	specs := predictor.Table6Specs()
	bank := predictor.NewBank(specs)
	var ref []*predictor.Bimodal
	for _, s := range specs {
		ref = append(ref, predictor.NewBimodal(s.Bits, s.Entries))
	}
	g := &lcg{s: 7}
	for i := 0; i < 200000; i++ {
		// Mostly dense small IDs (linearization's shape), some huge,
		// some negative to exercise the modulo fallback.
		id := int(g.next() % 4096)
		switch g.next() % 16 {
		case 0:
			id = int(g.next())
		case 1:
			id = -id
		}
		taken := g.next()&3 != 0 // biased-taken, like loop branches
		bank.Observe(id, taken)
		for _, p := range ref {
			p.Observe(id, taken)
		}
	}
	if bank.Len() != len(ref) {
		t.Fatalf("bank has %d predictors, want %d", bank.Len(), len(ref))
	}
	byName := bank.Mispredicts()
	for i, p := range ref {
		if bank.Name(i) != p.Name() {
			t.Errorf("predictor %d named %q, want %q", i, bank.Name(i), p.Name())
		}
		if bank.MispredictsOf(i) != p.Mispredicts {
			t.Errorf("%s: bank %d mispredicts, bimodal %d",
				p.Name(), bank.MispredictsOf(i), p.Mispredicts)
		}
		if byName[p.Name()] != p.Mispredicts {
			t.Errorf("%s: map reports %d, want %d",
				p.Name(), byName[p.Name()], p.Mispredicts)
		}
		if bank.Branches != p.Branches {
			t.Errorf("%s: bank saw %d branches, bimodal %d",
				p.Name(), bank.Branches, p.Branches)
		}
	}
}

func TestBankReset(t *testing.T) {
	bank := predictor.NewTable6Bank()
	fresh := predictor.NewTable6Bank()
	g := &lcg{s: 99}
	for i := 0; i < 5000; i++ {
		bank.Observe(int(g.next()%512), g.next()&1 == 0)
	}
	bank.Reset()
	if bank.Branches != 0 {
		t.Errorf("Branches = %d after Reset", bank.Branches)
	}
	g2 := &lcg{s: 31}
	for i := 0; i < 5000; i++ {
		id, taken := int(g2.next()%512), g2.next()&1 == 0
		bank.Observe(id, taken)
		fresh.Observe(id, taken)
	}
	for i := 0; i < bank.Len(); i++ {
		if bank.MispredictsOf(i) != fresh.MispredictsOf(i) {
			t.Errorf("%s: reset bank %d mispredicts, fresh %d",
				bank.Name(i), bank.MispredictsOf(i), fresh.MispredictsOf(i))
		}
	}
}

func TestBankNonPowerOfTwo(t *testing.T) {
	bank := predictor.NewBank([]predictor.Spec{{Bits: 2, Entries: 100}})
	ref := predictor.NewBimodal(2, 100)
	g := &lcg{s: 5}
	for i := 0; i < 50000; i++ {
		id, taken := int(g.next()%1000), g.next()&1 == 0
		bank.Observe(id, taken)
		ref.Observe(id, taken)
	}
	if bank.MispredictsOf(0) != ref.Mispredicts {
		t.Errorf("bank %d mispredicts, bimodal %d", bank.MispredictsOf(0), ref.Mispredicts)
	}
}

func TestTable6SpecsShape(t *testing.T) {
	specs := predictor.Table6Specs()
	if len(specs) != 14 {
		t.Fatalf("%d specs, want 14", len(specs))
	}
	bank := predictor.NewBank(specs)
	if bank.Name(0) != "(0,1)x32" || bank.Name(13) != "(0,2)x2048" {
		t.Errorf("unexpected endpoints %q, %q", bank.Name(0), bank.Name(13))
	}
}

// bankStream draws a branch stream for a program with n branch IDs: IDs
// in [0, n) with per-ID taken biases, and, in two streams of three, IDs
// outside that range from some random point on — negative, at least
// 2048, or just past n — which force a NewBankFor bank to split.
func bankStream(r *rand.Rand, n int) (ids []int, taken []bool) {
	bias := make([]int, n)
	for i := range bias {
		bias[i] = r.Intn(5)
	}
	length := r.Intn(3000)
	escape := length
	if length > 0 && r.Intn(3) != 0 {
		escape = r.Intn(length)
	}
	for i := 0; i < length; i++ {
		id := r.Intn(n)
		if i == escape || i > escape && r.Intn(8) == 0 {
			switch r.Intn(3) {
			case 0:
				id = -1 - r.Intn(5000)
			case 1:
				id = 2048 + r.Intn(1<<20)
			default:
				id = n + r.Intn(64)
			}
		}
		ids = append(ids, id)
		b := 2
		if id >= 0 && id < n {
			b = bias[id]
		}
		taken = append(taken, r.Intn(4) < b)
	}
	return ids, taken
}

// checkBankFor drives NewBankFor(specs, n), NewBank(specs) and the
// Bimodal fan-out from fanout with random streams, twice over the same
// banks with a Reset in between, and demands identical per-table counts.
func checkBankFor(t *testing.T, r *rand.Rand, specs []predictor.Spec, n int, fanout func() []*predictor.Bimodal) {
	t.Helper()
	collapsed := predictor.NewBankFor(specs, n)
	full := predictor.NewBank(specs)
	for round := 0; round < 2; round++ {
		ref := fanout()
		ids, taken := bankStream(r, n)
		for i, id := range ids {
			collapsed.Observe(id, taken[i])
			full.Observe(id, taken[i])
			for _, p := range ref {
				p.Observe(id, taken[i])
			}
		}
		byName := collapsed.Mispredicts()
		for i, p := range ref {
			if collapsed.Name(i) != p.Name() || full.Name(i) != p.Name() {
				t.Fatalf("predictor %d named %q/%q, want %q", i, collapsed.Name(i), full.Name(i), p.Name())
			}
			got := collapsed.MispredictsOf(i)
			if got != full.MispredictsOf(i) || got != p.Mispredicts || byName[p.Name()] != p.Mispredicts {
				t.Fatalf("n=%d round %d, %d events: %s: collapsed %d (map %d), full bank %d, bimodal %d",
					n, round, len(ids), p.Name(), got, byName[p.Name()], full.MispredictsOf(i), p.Mispredicts)
			}
		}
		if collapsed.Branches != uint64(len(ids)) || full.Branches != uint64(len(ids)) {
			t.Fatalf("n=%d: banks saw %d/%d branches, want %d", n, collapsed.Branches, full.Branches, len(ids))
		}
		collapsed.Reset()
		full.Reset()
	}
}

// A bank collapsed to its alias classes must be indistinguishable from
// the full Table-6 bank and from sim.PredictorSweep's Bimodal fan-out,
// for any ID bound and any stream: in range, where one representative
// per class does the work, and after an out-of-range ID splits it.
func TestBankForMatchesTable6(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		checkBankFor(t, r, predictor.Table6Specs(), 1+r.Intn(3000), sim.PredictorSweep)
	}
}

// The alias rule holds for any spec list, non-power-of-two sizes and
// repeated or wider counters included.
func TestBankForMatchesOddSpecs(t *testing.T) {
	specs := []predictor.Spec{
		{Bits: 2, Entries: 100}, {Bits: 2, Entries: 64}, {Bits: 1, Entries: 100},
		{Bits: 2, Entries: 100}, {Bits: 3, Entries: 48}, {Bits: 2, Entries: 3000},
		{Bits: 3, Entries: 7}, {Bits: 2, Entries: 1},
	}
	fanout := func() []*predictor.Bimodal {
		var out []*predictor.Bimodal
		for _, s := range specs {
			out = append(out, predictor.NewBimodal(s.Bits, s.Entries))
		}
		return out
	}
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		checkBankFor(t, r, specs, 1+r.Intn(3000), fanout)
	}
}
