// Command brperf measures the execution core's headline benchmarks —
// interpreter throughput on both engines, decode cost, the full
// measurement path and the predictor battery — and writes them as a
// JSON document. Committing the output as BENCH_baseline.json (and
// diffing later runs against it) gives the repo a performance
// trajectory that survives across machines and PRs:
//
//	go run ./cmd/brperf -o BENCH_baseline.json
//	go run ./cmd/brperf | diff BENCH_baseline.json -   # eyeball a change
//
// The same numbers are available as ordinary go benchmarks
// (go test -bench 'Interp|Decode|Build|SimWithPredictors|PredictorBattery');
// brperf exists so CI and scripts get machine-readable output without
// parsing benchmark text.
//
// -compare diffs two such documents and fails on regressions, which is
// how CI holds each PR against the committed baseline:
//
//	go run ./cmd/brperf -compare -threshold 50 BENCH_baseline.json new.json
//
// -server switches brperf from micro-benchmarks to macro load: it
// drives a running brstored with a deterministic mixed workload
// (internal/bench/loadgen) and reports per-op-class throughput and
// latency percentiles. -json emits the load document committed as
// LOAD_baseline.json; -compare understands both document kinds:
//
//	go run ./cmd/brperf -server http://127.0.0.1:8745 -duration 10s -json -o LOAD_baseline.json
//	go run ./cmd/brperf -compare -threshold 200 LOAD_baseline.json load_new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"branchreorder/internal/bench/loadgen"
	"branchreorder/internal/interp"
	"branchreorder/internal/lower"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/predictor"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

// result is one benchmark's measurement in the JSON document.
type result struct {
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	N           int     `json:"n"` // iterations the timing is averaged over
}

type document struct {
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Host records where the benchmarks ran (CPU count, GOMAXPROCS,
	// CPU model). -compare prints it but never gates on it, so drift
	// between baselines taken on different machines is diagnosable.
	Host       *loadgen.HostInfo `json:"host,omitempty"`
	Benchmarks map[string]result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "write JSON here instead of stdout")
	doCompare := flag.Bool("compare", false, "compare two result files: brperf -compare [-threshold pct] OLD.json NEW.json")
	threshold := flag.Float64("threshold", 25, "with -compare, fail if any benchmark slows down by more than this percentage")
	server := flag.String("server", "", "load-test a running brstored at this base URL instead of benchmarking")
	duration := flag.Duration("duration", 10*time.Second, "with -server, how long to generate load")
	clients := flag.Int("clients", 8, "with -server, concurrent closed-loop clients")
	mix := flag.String("mix", "get=70,put=20,batch=5,queue=5", "with -server, op-class weights")
	seed := flag.Uint64("seed", 1, "with -server, workload stream seed (same seed, same op streams)")
	abandon := flag.Float64("abandon", 0.1, "with -server, fraction of queue lifecycles abandoned after leasing")
	jsonOut := flag.Bool("json", false, "with -server, emit the machine-readable load document instead of a summary")
	flag.Parse()
	var err error
	switch {
	case *doCompare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: brperf -compare [-threshold pct] OLD.json NEW.json")
			os.Exit(2)
		}
		err = compareDispatch(flag.Arg(0), flag.Arg(1), *threshold)
	case *server != "":
		err = runLoad(loadFlags{
			server:   *server,
			duration: *duration,
			clients:  *clients,
			mix:      *mix,
			seed:     *seed,
			abandon:  *abandon,
			jsonOut:  *jsonOut,
			out:      *out,
		})
	default:
		err = run(*out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "brperf:", err)
		os.Exit(1)
	}
}

// loadDocument reads one brperf JSON document.
func loadDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &doc, nil
}

// compare prints per-benchmark deltas between two result documents and
// returns an error — a nonzero exit — if any shared benchmark's ns/op
// grew by more than threshold percent. Benchmarks present in only one
// document are reported but never count as regressions, so adding or
// retiring a benchmark does not break CI.
func compare(oldPath, newPath string, threshold float64) error {
	oldDoc, err := loadDocument(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadDocument(newPath)
	if err != nil {
		return err
	}
	// Host context for cross-machine diffs; informational only.
	if oldDoc.Host != nil || newDoc.Host != nil {
		fmt.Printf("old host: %s\nnew host: %s\n", oldDoc.Host, newDoc.Host)
	}
	names := make([]string, 0, len(oldDoc.Benchmarks)+len(newDoc.Benchmarks))
	for name := range oldDoc.Benchmarks {
		names = append(names, name)
	}
	for name := range newDoc.Benchmarks {
		if _, ok := oldDoc.Benchmarks[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-28s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	var regressed []string
	for _, name := range names {
		o, okOld := oldDoc.Benchmarks[name]
		n, okNew := newDoc.Benchmarks[name]
		switch {
		case !okOld:
			fmt.Printf("%-28s %14s %14.0f %9s\n", name, "-", n.NsPerOp, "(new)")
		case !okNew:
			fmt.Printf("%-28s %14.0f %14s %9s\n", name, o.NsPerOp, "-", "(gone)")
		default:
			delta := 0.0
			if o.NsPerOp > 0 {
				delta = 100 * (n.NsPerOp/o.NsPerOp - 1)
			}
			mark := ""
			if delta > threshold {
				mark = "  REGRESSION"
				regressed = append(regressed, name)
			}
			fmt.Printf("%-28s %14.0f %14.0f %+8.1f%%%s\n", name, o.NsPerOp, n.NsPerOp, delta, mark)
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%%: %s",
			len(regressed), threshold, strings.Join(regressed, ", "))
	}
	return nil
}

// frontend compiles one workload the way the benchmarks measure it.
func frontend(name string) (*lower.Result, workload.Workload, error) {
	w, ok := workload.Named(name)
	if !ok {
		return nil, w, fmt.Errorf("workload %q missing", name)
	}
	front, err := pipeline.Frontend(w.Source, pipeline.Options{Switch: lower.SetI, Optimize: true})
	return front, w, err
}

func run(out string) error {
	doc := document{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Host:       loadgen.CollectHost(),
		Benchmarks: map[string]result{},
	}
	record := func(name string, r testing.BenchmarkResult) {
		doc.Benchmarks[name] = result{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		}
		fmt.Fprintf(os.Stderr, "brperf: %-28s %12.0f ns/op  %6d allocs/op  (n=%d)\n",
			name, doc.Benchmarks[name].NsPerOp, r.AllocsPerOp(), r.N)
	}

	// Interpreter throughput, both engines, on the suite's heaviest
	// workload by dynamic instruction count (sort, Table 4) and the
	// classic light one (wc) — the PR-over-PR speedup headline.
	for _, name := range []string{"sort", "wc"} {
		front, w, err := frontend(name)
		if err != nil {
			return err
		}
		input := w.Test()
		code, err := interp.Decode(front.Prog)
		if err != nil {
			return err
		}
		unfused, err := interp.DecodeWith(front.Prog, interp.DecodeOptions{})
		if err != nil {
			return err
		}
		record("Interp/"+name+"/fast", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			m := &interp.FastMachine{Code: code, Input: input}
			if _, err := m.Run(); err != nil { // warm-up sizes the arenas
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}))
		// Same engine without superinstruction fusion (cmp+br folding
		// only): the within-document pair fast vs fast-nofuse carries the
		// fusion speedup claim and is machine-independent.
		record("Interp/"+name+"/fast-nofuse", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			m := &interp.FastMachine{Code: unfused, Input: input}
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}))
		record("Interp/"+name+"/reference", testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := &interp.Machine{Prog: front.Prog, Input: input}
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	front, w, err := frontend("wc")
	if err != nil {
		return err
	}
	input := w.Test()

	// The staged-pipeline headline: a cold build is an uncached stage
	// composition (pipeline.Build) and pays frontend + detection +
	// training + finalize; a build through a warm StageCache
	// pays only finalize. The ratio is what the ablation grid and
	// AutoBuild save on every Transform variant after the first.
	opts := pipeline.Options{Switch: lower.SetI, Optimize: true}
	train := w.Train()
	record("Build/wc/cold", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.Build(w.Source, train, opts); err != nil {
				b.Fatal(err)
			}
		}
	}))
	record("Build/wc/staged-warm", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		cache := pipeline.NewStageCache()
		if _, err := cache.Build(w.Source, train, opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cache.Build(w.Source, train, opts); err != nil {
				b.Fatal(err)
			}
		}
	}))

	record("Decode/wc", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := interp.Decode(front.Prog); err != nil {
				b.Fatal(err)
			}
		}
	}))
	record("SimWithPredictors/wc", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(front.Prog, input, nil); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// The same end-to-end measurement with superinstructions off: the
	// pair records the fusion win on the full sim.Run path (decode +
	// execute + predictor bank), not just the bare dispatch loop.
	record("SimWithPredictors/wc-nofuse", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunWith(front.Prog, input, nil, sim.Options{NoFuse: true}); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// The same end-to-end measurement on the suite's heaviest workload,
	// where execution (not the predictor bank) dominates.
	sortFront, sortW, err := frontend("sort")
	if err != nil {
		return err
	}
	sortInput := sortW.Test()
	record("SimWithPredictors/sort", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(sortFront.Prog, sortInput, nil); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Table-6 battery on a synthetic stream: the vectorized bank versus
	// the 14-Bimodal fan-out it replaced. Same stream as the go test
	// benchmark (BenchmarkPredictorBattery).
	const streamLen = 4096
	ids := make([]int, streamLen)
	taken := make([]bool, streamLen)
	r := uint64(12345)
	for i := range ids {
		r = r*6364136223846793005 + 1442695040888963407
		ids[i] = int(r>>33) % 200
		taken[i] = r>>62&1 == 0
	}
	record("PredictorBattery/bank", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		bank := predictor.NewTable6Bank()
		for i := 0; i < b.N; i++ {
			bank.Observe(ids[i%streamLen], taken[i%streamLen])
		}
	}))
	record("PredictorBattery/bimodals", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		preds := sim.PredictorSweep()
		for i := 0; i < b.N; i++ {
			for _, p := range preds {
				p.Observe(ids[i%streamLen], taken[i%streamLen])
			}
		}
	}))

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}
