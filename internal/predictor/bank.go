package predictor

import "fmt"

// Bank simulates a battery of bimodal predictors over one branch stream
// in a single pass. Where sim.Run used to fan every executed branch out
// to 14 separate Bimodal.Observe calls (one per Table-6 configuration),
// a Bank holds every counter table as a flat byte slice carved from one
// backing array and updates all of them in one tight loop per
// (branchID, taken) event. The update rule is bit-for-bit the Bimodal
// one, so mispredict counts are identical; Bimodal stays as the
// reference implementation and the one-predictor API.
//
// A bank built by NewBankFor also knows the stream's ID range and
// simulates each alias class once; see NewBankFor.
type Bank struct {
	preds []bankPred // one per spec, in spec order

	// reps holds one representative per alias class of a NewBankFor
	// bank (nil for NewBank), and classOf maps each spec to its class.
	// A representative shares its first member's table.
	reps    []bankPred
	classOf []int
	// n bounds the IDs the classes were formed over: [0, n).
	n int
	// live is what Observe updates: reps while collapsed, else preds.
	// A NewBank bank is never collapsed; a NewBankFor bank is until an
	// ID outside [0, n) splits it.
	live      []bankPred
	collapsed bool

	// Branches is the number of events observed — the same for every
	// predictor in the bank.
	Branches uint64
}

// bankPred is one predictor's configuration and state inside a Bank.
type bankPred struct {
	name    string
	entries int
	mask    uint32 // entries-1 when entries is a power of two, else 0
	pow2    bool
	thresh  uint8
	max     uint8
	init    uint8
	table   []uint8

	mispredicts uint64
}

// Spec describes one predictor of a Bank: a (0,Bits) predictor with
// Entries table entries, exactly as NewBimodal takes them.
type Spec struct {
	Bits    int
	Entries int
}

// Table6Specs is the (0,1)/(0,2) × 32..2048 battery of the paper's
// Table 6, in presentation order.
func Table6Specs() []Spec {
	var out []Spec
	for _, bits := range []int{1, 2} {
		for entries := 32; entries <= 2048; entries *= 2 {
			out = append(out, Spec{Bits: bits, Entries: entries})
		}
	}
	return out
}

// NewBank builds a bank from the given specs. Counter semantics match
// NewBimodal: width 1..8 bits, counters start weakly not taken.
func NewBank(specs []Spec) *Bank {
	total := 0
	for _, s := range specs {
		if s.Bits < 1 || s.Bits > 8 {
			panic(fmt.Sprintf("predictor: counter width %d out of range", s.Bits))
		}
		if s.Entries <= 0 {
			panic("predictor: table must have at least one entry")
		}
		total += s.Entries
	}
	b := &Bank{preds: make([]bankPred, len(specs))}
	backing := make([]uint8, total)
	off := 0
	for i, s := range specs {
		max := uint8(1<<s.Bits - 1)
		thresh := uint8(1 << (s.Bits - 1))
		p := &b.preds[i]
		p.name = fmt.Sprintf("(0,%d)x%d", s.Bits, s.Entries)
		p.entries = s.Entries
		p.pow2 = s.Entries&(s.Entries-1) == 0
		if p.pow2 {
			p.mask = uint32(s.Entries - 1)
		}
		p.thresh = thresh
		p.max = max
		if s.Bits > 1 {
			p.init = thresh - 1 // weakly not taken
		}
		p.table = backing[off : off+s.Entries : off+s.Entries]
		off += s.Entries
	}
	b.Reset()
	return b
}

// NewBankFor builds a bank for a stream whose branch IDs lie in [0, n),
// such as a linearized program's 0..NextBranchID()-1. It simulates one
// representative per alias class instead of every table: two specs
// alias over [0, n) when their counters have the same width and either
// both tables have at least n entries (each ID then has its own counter
// in both) or both have the same size (the same IDs share counters in
// both). Members of a class see identical counter histories, so each
// reports its representative's count.
//
// The bank stays exact for any stream: the first ID outside [0, n)
// splits it back into one table per spec, each rebuilt from its
// representative's state, and Reset restores the classes.
func NewBankFor(specs []Spec, n int) *Bank {
	b := NewBank(specs)
	n = max(n, 0)
	type class struct{ bits, entries int }
	index := map[class]int{}
	b.classOf = make([]int, len(specs))
	for i, s := range specs {
		c := class{s.Bits, s.Entries}
		if s.Entries >= n {
			c.entries = -1
		}
		k, ok := index[c]
		if !ok {
			k = len(b.reps)
			index[c] = k
			b.reps = append(b.reps, b.preds[i])
		}
		b.classOf[i] = k
	}
	b.n = n
	b.live, b.collapsed = b.reps, true
	return b
}

// NewTable6Bank builds the full Table-6 sweep bank.
func NewTable6Bank() *Bank { return NewBank(Table6Specs()) }

// Len reports how many predictors the bank simulates.
func (b *Bank) Len() int { return len(b.preds) }

// Name identifies predictor i, e.g. "(0,2)x2048".
func (b *Bank) Name(i int) string { return b.preds[i].name }

// of returns the state that holds predictor i's count: its alias
// class's representative while the bank is collapsed.
func (b *Bank) of(i int) *bankPred {
	if b.collapsed {
		return &b.reps[b.classOf[i]]
	}
	return &b.preds[i]
}

// MispredictsOf reports predictor i's mispredicted branches.
func (b *Bank) MispredictsOf(i int) uint64 { return b.of(i).mispredicts }

// Mispredicts returns every predictor's mispredict count keyed by name —
// the map sim.Measurement carries.
func (b *Bank) Mispredicts() map[string]uint64 {
	out := make(map[string]uint64, len(b.preds))
	for i := range b.preds {
		out[b.preds[i].name] = b.of(i).mispredicts
	}
	return out
}

// split gives every spec its own table again, copied from its class
// representative. Counters at indices of n or more were never touched,
// so copying the shorter of two tables of a size class loses nothing.
func (b *Bank) split() {
	for i := range b.preds {
		p, rep := &b.preds[i], &b.reps[b.classOf[i]]
		copy(p.table, rep.table)
		p.mispredicts = rep.mispredicts
	}
	b.live, b.collapsed = b.preds, false
}

// Observe records one executed branch in every predictor of the bank.
// The hot path: branch IDs from linearization are dense non-negative
// ints and every Table-6 size is a power of two, so indexing is a mask;
// the general case falls back to Bimodal's modulo rule.
func (b *Bank) Observe(id int, taken bool) {
	if b.collapsed && uint(id) >= uint(b.n) {
		b.split()
	}
	b.Branches++
	if id >= 0 {
		u := uint32(id)
		for i := range b.live {
			p := &b.live[i]
			var idx uint32
			if p.pow2 {
				idx = u & p.mask
			} else {
				idx = u % uint32(p.entries)
			}
			ctr := p.table[idx]
			if (ctr >= p.thresh) != taken {
				p.mispredicts++
			}
			if taken {
				if ctr < p.max {
					p.table[idx] = ctr + 1
				}
			} else if ctr > 0 {
				p.table[idx] = ctr - 1
			}
		}
		return
	}
	for i := range b.live {
		p := &b.live[i]
		idx := id % p.entries
		if idx < 0 {
			idx += p.entries
		}
		ctr := p.table[idx]
		if (ctr >= p.thresh) != taken {
			p.mispredicts++
		}
		if taken {
			if ctr < p.max {
				p.table[idx] = ctr + 1
			}
		} else if ctr > 0 {
			p.table[idx] = ctr - 1
		}
	}
}

// Reset restores initial counters, clears counts and, for a NewBankFor
// bank, restores the alias classes.
func (b *Bank) Reset() {
	b.Branches = 0
	for i := range b.preds {
		p := &b.preds[i]
		p.mispredicts = 0
		for j := range p.table {
			p.table[j] = p.init
		}
	}
	for i := range b.reps {
		b.reps[i].mispredicts = 0
	}
	b.live, b.collapsed = b.preds, b.reps != nil
	if b.collapsed {
		b.live = b.reps
	}
}
