// Command perfbench is the repository's benchmark. It measures the two
// products end to end — brbench regenerating the paper's tables and
// brstored serving the fleet store — and, in a separate traced run,
// attributes the time to the layers the products are built from.
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
//
// Workloads (see BENCHMARK.json and perfbench/layers.json for why each
// exists and which layer metric should move which end-to-end metric):
//
//	paper-suite    cold `brbench -j nproc`: every table and figure, 51 builds
//	ablation-grid  cold `brbench -ablation -j nproc`: 85 builds, 170 simulations
//	store-mixed    a fresh brstored under open-loop get/put/batch/queue traffic
//
// With --trace 0 the run drives the real binaries with tracing off and
// prints the end-to-end metrics; with --trace 1 it composes the same work
// from the layers' public functions, wraps a span around every call, and
// prints the per-layer metrics. Either way it checks every output and the
// last stdout line is one JSON object: correct, attempted, failed,
// metrics. A failed check makes the command exit nonzero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// config is one invocation's settings.
type config struct {
	root     string // checkout root: sources, BENCHMARK.json, perfbench/
	bin      string // directory holding the brbench and brstored binaries
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// tmpDir returns a fresh directory for one pass's files, inside the
// checkout's build directory.
func (c config) tmpDir(pattern string) (string, error) {
	base := filepath.Join(c.root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, pattern)
}

// outcome is what one workload run reports: the checks it made and the
// metrics it measured, by name.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

func (o *outcome) check(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		cfg   config
		trace int
	)
	fs.StringVar(&cfg.root, "root", ".", "checkout root")
	fs.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory with the brbench and brstored binaries")
	fs.StringVar(&cfg.workload, "workload", "", "paper-suite, ablation-grid or store-mixed")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if trace != 0 && trace != 1 {
		return fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	if cfg.seconds <= 0 {
		return fail(fmt.Errorf("--seconds must be positive"))
	}
	cfg.trace = trace == 1
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return fail(err)
	}
	cfg.root = root
	if cfg.bin, err = filepath.Abs(cfg.bin); err != nil {
		return fail(err)
	}
	decl, err := loadDeclared(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	if !decl.hasWorkload(cfg.workload) {
		return fail(fmt.Errorf("unknown workload %q", cfg.workload))
	}

	prov := collectProvenance(cfg)
	if line, err := json.Marshal(map[string]provenance{"provenance": prov}); err == nil {
		fmt.Println(string(line))
	}

	var out *outcome
	switch {
	case cfg.trace && cfg.workload == storeMixed:
		out, err = traceStore(cfg, prov)
	case cfg.trace:
		out, err = traceCompile(cfg, prov)
	case cfg.workload == storeMixed:
		out, err = runStore(cfg)
	default:
		out, err = runCompile(cfg)
	}
	if err != nil {
		return fail(err)
	}
	want := decl.EndToEnd
	if cfg.trace {
		want = decl.PerLayer
	}
	line, err := resultLine(out, want)
	if err != nil {
		return fail(err)
	}
	fmt.Println(line)
	if out.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d checks failed\n", out.failed, out.attempted)
		return 1
	}
	return 0
}

// declaredMetric is one metric entry of BENCHMARK.json.
type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared is the part of BENCHMARK.json perfbench checks its output
// against, so a metric can neither go missing nor appear undeclared.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func loadDeclared(path string) (*declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func (d *declared) hasWorkload(name string) bool {
	for _, w := range d.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// resultLine renders the final JSON object, requiring exactly the
// declared metrics.
func resultLine(o *outcome, want []declaredMetric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	var errs []error
	for _, m := range want {
		v, ok := o.metrics[m.Name]
		if !ok {
			errs = append(errs, fmt.Errorf("metric %s was not measured", m.Name))
			continue
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	if len(o.metrics) != len(metrics) {
		for name := range o.metrics {
			if _, ok := metrics[name]; !ok {
				errs = append(errs, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name))
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		return "", err
	}
	attempted := max(o.attempted, 1)
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, attempted, o.failed, metrics})
	return string(data), err
}

// nproc is the parallelism every workload runs at: brbench -j and the
// number of store connections.
func nproc() int { return runtime.NumCPU() }
