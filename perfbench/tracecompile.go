package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"branchreorder/internal/bench"
	"branchreorder/internal/interp"
	"branchreorder/internal/ir"
	"branchreorder/internal/lower"
	"branchreorder/internal/machine"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/predictor"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

// Spans the benchmark adds for its own work: replaying a branch stream
// needs it captured first, the useful-work ratios need program digests,
// and the reference interpreter checks every output. The product does
// none of this, so these spans are left out of the traced pass's wall
// time when layer coverage is computed.
var benchOnlySpans = []string{"trace.capture", "trace.digest", "check.reference"}

// layerSpans are the spans the per-layer self times come from.
var layerSpans = []string{
	"pipeline.frontend", "pipeline.train", "pipeline.finalize",
	"sim.measure", "interp.decode", "interp.exec", "predictor.bank", "sim.cycles",
	"bench.render",
}

type frontKey struct {
	src string
	fo  pipeline.FrontendOptions
}

type trainKey struct {
	front *pipeline.FrontendProduct
	train string
	d     pipeline.DetectOptions
}

type refKey struct {
	front *pipeline.FrontendProduct
	input string
}

// refResult is the reference interpreter's run of a frontend product.
type refResult struct {
	out []byte
	ret int64
}

// layerCounts are the work counters of one composed pass.
type layerCounts struct {
	frontendCalls, trainCalls, finalizeCalls, measureCalls int
	irInsts, profEvents                                    uint64
	seqsDetected, seqsApplied                              int
	bankEvents, insts, decodeOps                           uint64
	distinctMispredicts, branchIDs                         int
	distinctMeasured                                       int
}

// composer runs a compile workload's job matrix by calling the layers'
// public functions in the order bench.Engine does — frontend and
// training through a stage cache, then finalize, then both measurements
// — with the measurement itself split into decode, execute, predictor
// bank and cycle model so each gets its own span.
type composer struct {
	t        *tracer
	fronts   map[frontKey]*pipeline.FrontendProduct
	trains   map[trainKey]*pipeline.TrainProduct
	refs     map[refKey]refResult
	measured map[[32]byte]bool
	stream   []uint64 // captured (branch id, taken) events, reused
	counts   layerCounts
	out      *outcome
}

func newComposer(t *tracer, out *outcome) *composer {
	return &composer{
		t:        t,
		fronts:   map[frontKey]*pipeline.FrontendProduct{},
		trains:   map[trainKey]*pipeline.TrainProduct{},
		refs:     map[refKey]refResult{},
		measured: map[[32]byte]bool{},
		out:      out,
	}
}

// composedPass is one composed run of a compile workload: its runs in
// job order and its rendered stdout.
type composedPass struct {
	runs   []*bench.ProgramRun
	stdout string
	wall   time.Duration
}

func composePass(name string, t *tracer, out *outcome) (*composer, *composedPass, error) {
	c := newComposer(t, out)
	jobs := compileJobs(name)
	start := time.Now()
	runs := make([]*bench.ProgramRun, len(jobs))
	for i, job := range jobs {
		r, err := c.job(int64(i), job)
		if err != nil {
			return nil, nil, fmt.Errorf("%s (set %v): %w", job.Workload.Name, job.Opts.Switch, err)
		}
		runs[i] = r
	}
	var stdout string
	var err error
	t.do("bench.render", int64(len(jobs)), -1, func() { stdout, err = render(name, runs) })
	if err != nil {
		return nil, nil, err
	}
	return c, &composedPass{runs: runs, stdout: stdout, wall: time.Since(start)}, nil
}

// job builds and measures one (workload, options) pair.
func (c *composer) job(id int64, job bench.Job) (*bench.ProgramRun, error) {
	t := c.t
	root := t.begin("bench.job", id, -1)
	defer t.end(root)
	w, opts := job.Workload, job.Opts

	fk := frontKey{w.Source, opts.Frontend()}
	front, ok := c.fronts[fk]
	if !ok {
		var err error
		t.do("pipeline.frontend", id, root, func() { front, err = pipeline.BuildFrontend(w.Source, fk.fo) })
		if err != nil {
			return nil, err
		}
		c.fronts[fk] = front
		c.counts.frontendCalls++
		c.counts.irInsts += irInsts(front.Prog)
	}

	train := bench.TrainInput(w, opts)
	tk := trainKey{front, string(train), opts.Detection()}
	tp, ok := c.trains[tk]
	if !ok {
		var err error
		t.do("pipeline.train", id, root, func() {
			tp, err = pipeline.TrainStageWith(front, train, tk.d, interp.EngineFast)
		})
		if err != nil {
			return nil, err
		}
		c.trains[tk] = tp
		c.counts.trainCalls++
		for _, sp := range tp.SeqProfiles {
			c.counts.profEvents += sp.Total
		}
		for _, sp := range tp.OrSeqProfiles {
			c.counts.profEvents += sp.Total
		}
	}

	var b *pipeline.BuildResult
	var err error
	t.do("pipeline.finalize", id, root, func() { b, err = pipeline.FinalizeStages(front, tp, opts) })
	if err != nil {
		return nil, err
	}
	c.counts.finalizeCalls++
	for _, r := range b.Results {
		c.counts.seqsDetected++
		if r.Applied {
			c.counts.seqsApplied++
		}
	}
	for _, r := range b.OrResults {
		c.counts.seqsDetected++
		if r.Applied {
			c.counts.seqsApplied++
		}
	}

	test := w.Test()
	base, err := c.measure(id, root, b.Baseline, test)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	reord, err := c.measure(id, root, b.Reordered, test)
	if err != nil {
		return nil, fmt.Errorf("reordered: %w", err)
	}
	ref := c.reference(id, root, front, test)
	c.out.check(base.Output == string(ref.out) && base.Ret == ref.ret)
	c.out.check(reord.Output == string(ref.out) && reord.Ret == ref.ret)
	return programRun(w, opts, b, base, reord), nil
}

// measure is sim.RunWith's default path taken apart: decode, execute
// with no hooks, replay the branch stream through the Table-6 bank, and
// evaluate the cycle model for every machine.
func (c *composer) measure(id int64, parent int, prog *ir.Program, input []byte) (*sim.Measurement, error) {
	t := c.t
	h := t.begin("sim.measure", id, parent)
	defer t.end(h)
	var (
		code  *interp.Code
		ret   int64
		stats interp.Stats
		out   []byte
		err   error
	)
	t.do("interp.decode", id, h, func() { code, err = interp.DecodeWith(prog, interp.DecodeOptions{Fuse: true}) })
	if err != nil {
		return nil, err
	}
	t.do("interp.exec", id, h, func() { ret, stats, out, err = interp.Exec(interp.EngineFast, prog, code, input, nil, nil) })
	if err != nil {
		return nil, err
	}
	t.do("trace.capture", id, h, func() {
		c.stream = c.stream[:0]
		_, _, _, err = interp.Exec(interp.EngineFast, prog, code, input, func(id int, taken bool) {
			v := uint64(int64(id) << 1)
			if taken {
				v |= 1
			}
			c.stream = append(c.stream, v)
		}, nil)
	})
	if err != nil {
		return nil, err
	}
	var mis map[string]uint64
	t.do("predictor.bank", id, h, func() {
		bank := predictor.NewTable6Bank()
		for _, v := range c.stream {
			bank.Observe(int(int64(v)>>1), v&1 == 1)
		}
		mis = bank.Mispredicts()
	})
	cfgs := machine.All()
	cycles := make(map[string]uint64, len(cfgs))
	t.do("sim.cycles", id, h, func() {
		for _, cfg := range cfgs {
			cycles[cfg.Name] = sim.Cycles(cfg, stats, mis)
		}
	})
	fusion := code.FusionStats()
	t.do("trace.digest", id, h, func() { c.count(prog, input, mis, stats, fusion) })
	return &sim.Measurement{
		Stats:       stats,
		Output:      string(out),
		Ret:         ret,
		Mispredicts: mis,
		Cycles:      cycles,
		Fusion:      fusion,
	}, nil
}

// count updates the measurement counters: work done, and how much of it
// was useful — distinct mispredict totals among the bank's tables, and
// distinct (program, input) pairs among the measurements.
func (c *composer) count(prog *ir.Program, input []byte, mis map[string]uint64, stats interp.Stats, fusion interp.FusionStats) {
	k := &c.counts
	k.measureCalls++
	k.bankEvents += uint64(len(c.stream))
	k.insts += stats.Insts
	k.decodeOps += uint64(fusion.Ops)
	totals := map[uint64]bool{}
	for _, n := range mis {
		totals[n] = true
	}
	k.distinctMispredicts += len(totals)
	ids := map[uint64]bool{}
	for _, v := range c.stream {
		ids[v>>1] = true
	}
	k.branchIDs = max(k.branchIDs, len(ids))
	// The dump does not show delay-slot fills, so the run's statistics
	// join the key: two measurements count as one only if program text,
	// input and every dynamic count agree.
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%q\x00%+v", prog.Dump(), input, stats)
	var key [32]byte
	copy(key[:], h.Sum(nil))
	if !c.measured[key] {
		c.measured[key] = true
		k.distinctMeasured++
	}
}

// reference runs the reference interpreter on the frontend product, once
// per (product, input): the independent oracle every measured output
// must equal.
func (c *composer) reference(id int64, parent int, front *pipeline.FrontendProduct, input []byte) refResult {
	key := refKey{front, string(input)}
	if r, ok := c.refs[key]; ok {
		return r
	}
	var r refResult
	c.t.do("check.reference", id, parent, func() {
		m := &interp.Machine{Prog: ir.CloneProgram(front.Prog), Input: input}
		ret, err := m.Run()
		if err != nil {
			r = refResult{out: []byte("reference interpreter: " + err.Error()), ret: -1}
			return
		}
		r = refResult{out: m.Output.Bytes(), ret: ret}
	})
	c.refs[key] = r
	return r
}

// programRun assembles what bench's measureBuild would from the same
// build and measurements.
func programRun(w workload.Workload, opts pipeline.Options, b *pipeline.BuildResult, base, reord *sim.Measurement) *bench.ProgramRun {
	const ijmpInsts = 3
	seqs := make([]bench.SeqStat, len(b.Results))
	for i, res := range b.Results {
		seqs[i] = bench.SeqStat{
			Applied:      res.Applied,
			OrigBranches: res.OrigBranches,
			NewBranches:  res.NewBranches,
			Default:      -1,
		}
		if res.Applied {
			seqs[i].Order = append([]int(nil), res.Ordering.Explicit...)
			seqs[i].Omitted = append([]int(nil), res.Ordering.Omitted...)
			seqs[i].Default = res.Ordering.DefaultTarget
		}
	}
	return &bench.ProgramRun{
		Workload:    w,
		Set:         opts.Switch,
		Opts:        opts,
		Build:       b,
		Base:        base,
		Reord:       reord,
		StaticBase:  pipeline.StaticInsts(b.Baseline, ijmpInsts),
		StaticReord: pipeline.StaticInsts(b.Reordered, ijmpInsts),
		Seqs:        seqs,
	}
}

// render prints what brbench prints for the workload from the runs.
func render(name string, runs []*bench.ProgramRun) (string, error) {
	var sb bytes.Buffer
	if name == ablationGrid {
		variants := bench.AblationVariants(lower.SetIII)
		ws := workload.All()
		rows := make([]bench.AblationRow, len(ws))
		for wi, w := range ws {
			full := runs[wi*len(variants)]
			row := bench.AblationRow{Workload: w.Name, Insts: map[string]uint64{}, Baseline: full.Base.Stats.Insts}
			for vi, v := range variants {
				row.Insts[v.Name] = runs[wi*len(variants)+vi].Reord.Stats.Insts
			}
			rows[wi] = row
		}
		return bench.AblationTable(lower.SetIII, rows), nil
	}
	s := &bench.Suite{Runs: map[lower.HeuristicSet][]*bench.ProgramRun{}}
	n := len(workload.All())
	for si, set := range bench.Sets() {
		s.Runs[set] = runs[si*n : (si+1)*n]
	}
	sb.WriteString(bench.Table2() + "\n")
	sb.WriteString(bench.Table3() + "\n")
	for _, table := range []func() string{s.Table4, s.Table5, s.Table6, s.Table7, s.Table8} {
		sb.WriteString(table() + "\n")
	}
	for n := 11; n <= 13; n++ {
		fig, err := s.Figure(n)
		if err != nil {
			return "", err
		}
		sb.WriteString(fig + "\n")
	}
	return sb.String(), nil
}

func irInsts(p *ir.Program) uint64 {
	var n uint64
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += uint64(len(b.Insts))
		}
	}
	return n
}

// traceCompile is the traced run of paper-suite or ablation-grid: one
// untraced brbench pass for the counters the program itself reports,
// then the composed pass untraced, traced and untraced again; the traced
// pass's wall time over the last untraced one's is the tracing overhead.
func traceCompile(cfg config, prov provenance) (*outcome, error) {
	expected, err := expectedTables(cfg)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	r := runProcess(filepath.Join(cfg.bin, "brbench"), compileArgs(cfg)...)
	if r.err != nil {
		return nil, r.err
	}
	out.check(bytes.Equal(r.stdout, expected))
	counts, err := parseCounts(r.stderr)
	if err != nil {
		return nil, err
	}

	// The first untraced pass warms up (lazy input generation, page
	// faults, heap growth); the overhead compares the traced pass with
	// the untraced one after it.
	var plainWall time.Duration
	plainPass := func() error {
		_, plain, err := composePass(cfg.workload, nil, out)
		if err != nil {
			return err
		}
		out.check(plain.stdout == string(expected))
		plainWall = plain.wall
		return nil
	}
	if err := plainPass(); err != nil {
		return nil, err
	}

	t := newTracer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, traced, err := composePass(cfg.workload, t, out)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	out.check(traced.stdout == string(expected))
	if err := plainPass(); err != nil {
		return nil, err
	}

	self := t.selfTimes()
	k := c.counts
	m := out.metrics
	m["predictor.bank.self_ms"] = ms(self["predictor.bank"])
	m["predictor.bank.events"] = float64(k.bankEvents)
	m["predictor.bank.ns_per_event"] = float64(self["predictor.bank"]) / float64(max(k.bankEvents, 1))
	m["predictor.bank.useful_ratio"] = float64(k.distinctMispredicts) / float64(len(predictor.Table6Specs())*max(k.measureCalls, 1))
	m["predictor.bank.branch_ids"] = float64(k.branchIDs)
	m["interp.exec.self_ms"] = ms(self["interp.exec"])
	m["interp.exec.insts"] = float64(k.insts)
	m["interp.exec.ns_per_inst"] = float64(self["interp.exec"]) / float64(max(k.insts, 1))
	m["interp.decode.self_ms"] = ms(self["interp.decode"])
	m["interp.decode.ops"] = float64(k.decodeOps)
	m["sim.measure.calls"] = float64(k.measureCalls)
	m["sim.measure.self_ms"] = ms(self["sim.measure"])
	m["sim.measure.useful_ratio"] = float64(k.distinctMeasured) / float64(max(k.measureCalls, 1))
	m["sim.cycles.self_ms"] = ms(self["sim.cycles"])
	m["pipeline.train.calls"] = float64(k.trainCalls)
	m["pipeline.train.self_ms"] = ms(self["pipeline.train"])
	m["pipeline.train.prof_events"] = float64(k.profEvents)
	m["pipeline.frontend.calls"] = float64(k.frontendCalls)
	m["pipeline.frontend.self_ms"] = ms(self["pipeline.frontend"])
	m["pipeline.frontend.ir_insts"] = float64(k.irInsts)
	m["pipeline.finalize.calls"] = float64(k.finalizeCalls)
	m["pipeline.finalize.self_ms"] = ms(self["pipeline.finalize"])
	m["core.seqs_detected"] = float64(k.seqsDetected)
	m["core.seqs_applied"] = float64(k.seqsApplied)
	m["pipeline.stagecache.frontend_reused"] = float64(counts.frontendReused)
	m["pipeline.stagecache.train_reused"] = float64(counts.trainReused)
	m["bench.builds"] = float64(counts.builds)
	m["bench.cache_hits"] = float64(counts.cacheHits)
	m["bench.render.self_ms"] = ms(self["bench.render"])
	m["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["trace.overhead_ratio"] = traced.wall.Seconds() / plainWall.Seconds()
	m["trace.coverage_ratio"] = coverage(self, traced.wall, layerSpans, benchOnlySpans)
	notExercised(m, storeLayerMetrics)

	return out, writeSpans(cfg, t, prov)
}

// coverage is the share of the traced pass's wall time, less the
// benchmark's own spans, that the layer spans' self times account for.
// The share of the whole wall time goes to stderr beside it.
func coverage(self map[string]time.Duration, wall time.Duration, layerNames, benchNames []string) float64 {
	var layers, benchOnly time.Duration
	for _, name := range layerNames {
		layers += self[name]
	}
	for _, name := range benchNames {
		benchOnly += self[name]
	}
	reduced := layers.Seconds() / (wall - benchOnly).Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: layer self times cover %.3f of the traced wall time less the benchmark's own spans (%.3f s of %.3f s), %.3f of all of it\n",
		reduced, benchOnly.Seconds(), wall.Seconds(), layers.Seconds()/wall.Seconds())
	return reduced
}

// writeSpans stores the traced run's spans under .bench_build/spans.
func writeSpans(cfg config, t *tracer, prov provenance) error {
	dir := filepath.Join(cfg.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := t.write(path, prov); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}

// compileLayerMetrics and storeLayerMetrics are the per-layer metrics of
// layers only one kind of workload exercises. The other kind reports
// them as zero: that work does not happen there.
var compileLayerMetrics = []string{
	"predictor.bank.self_ms", "predictor.bank.events", "predictor.bank.ns_per_event",
	"predictor.bank.useful_ratio", "predictor.bank.branch_ids",
	"interp.exec.self_ms", "interp.exec.insts", "interp.exec.ns_per_inst",
	"interp.decode.self_ms", "interp.decode.ops",
	"sim.measure.calls", "sim.measure.self_ms", "sim.measure.useful_ratio", "sim.cycles.self_ms",
	"pipeline.train.calls", "pipeline.train.self_ms", "pipeline.train.prof_events",
	"pipeline.frontend.calls", "pipeline.frontend.self_ms", "pipeline.frontend.ir_insts",
	"pipeline.finalize.calls", "pipeline.finalize.self_ms",
	"core.seqs_detected", "core.seqs_applied",
	"pipeline.stagecache.frontend_reused", "pipeline.stagecache.train_reused",
	"bench.builds", "bench.cache_hits", "bench.render.self_ms",
}

var storeLayerMetrics = []string{
	"storenet.get.self_ms", "storenet.put.self_ms", "storenet.batch.self_ms", "storenet.queue.self_ms",
	"storenet.gzip.ms_per_resp", "storenet.alloc_bytes_per_req",
	"store.get_raw.self_ms", "store.verify.self_ms", "store.decode.self_ms",
	"store.put.self_ms", "store.encode.self_ms",
	"storenet.client.retries", "storenet.client.fallbacks", "loadgen.late_p99_ms",
}

func notExercised(m map[string]float64, names []string) {
	for _, name := range names {
		m[name] = 0
	}
}
