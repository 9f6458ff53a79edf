package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"branchreorder/internal/bench"
	"branchreorder/internal/bench/store"
	"branchreorder/internal/lower"
	"branchreorder/internal/workload"
)

const (
	paperSuite   = "paper-suite"
	ablationGrid = "ablation-grid"
	storeMixed   = "store-mixed"
)

const (
	// setupLaunches is how many times a run measures set-up before each
	// pass; the median over the run is reported.
	setupLaunches = 4
	// minPasses is the fewest cold passes a compile run makes, however
	// short --seconds is.
	minPasses = 5
	// processTimeout bounds any one child process.
	processTimeout = 150 * time.Second
)

// compileJobs is the job matrix a compile workload's pass builds, the
// same enumeration brbench uses.
func compileJobs(name string) []bench.Job {
	if name == ablationGrid {
		return bench.AblationJobs(lower.SetIII, workload.All())
	}
	return bench.SuiteJobs(workload.All())
}

// compileArgs returns the brbench flags of one cold pass.
func compileArgs(cfg config) []string {
	args := []string{"-j", strconv.Itoa(nproc())}
	if cfg.workload == ablationGrid {
		args = append([]string{"-ablation"}, args...)
	}
	return args
}

// expectedTables is the workload's stdout as brbench printed it when the
// benchmark was defined; every pass must reproduce it byte for byte.
func expectedTables(cfg config) ([]byte, error) {
	return os.ReadFile(filepath.Join(cfg.root, "perfbench", "expected", cfg.workload+".txt"))
}

// procResult is one finished child process.
type procResult struct {
	wall   time.Duration
	cpu    time.Duration // user+sys
	rssKB  int64         // peak resident set
	stdout []byte
	stderr []byte
	err    error
}

// runProcess runs bin to completion and collects its resource usage.
func runProcess(bin string, args ...string) procResult {
	ctx, cancel := context.WithTimeout(context.Background(), processTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := procResult{wall: time.Since(start), stdout: stdout.Bytes(), stderr: stderr.Bytes(), err: err}
	if ru, ok := processUsage(cmd.ProcessState); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.rssKB = ru.Maxrss
	}
	if err != nil {
		r.err = fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLine(stderr.Bytes()))
	}
	return r
}

func processUsage(ps *os.ProcessState) (*syscall.Rusage, bool) {
	if ps == nil {
		return nil, false
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	return ru, ok
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

var (
	summaryRE = regexp.MustCompile(`brbench: (\d+) builds, (\d+) cache hits`)
	stagesRE  = regexp.MustCompile(`brbench: stages: (\d+) frontend runs \((\d+) reused\), (\d+) training runs \((\d+) reused`)
)

// passCounts are the work counters brbench's stderr summary reports.
type passCounts struct {
	builds, cacheHits           int
	frontendReused, trainReused int
}

func parseCounts(stderr []byte) (passCounts, error) {
	var c passCounts
	m := summaryRE.FindSubmatch(stderr)
	s := stagesRE.FindSubmatch(stderr)
	if m == nil || s == nil {
		return c, fmt.Errorf("brbench printed no build summary: %s", lastLine(stderr))
	}
	atoi := func(b []byte) int { n, _ := strconv.Atoi(string(b)); return n }
	c.builds, c.cacheHits = atoi(m[1]), atoi(m[2])
	c.frontendReused, c.trainReused = atoi(s[2]), atoi(s[4])
	return c, nil
}

// coldPass runs one cold brbench pass on a fresh cache directory and
// checks its tables.
func coldPass(cfg config, out *outcome, expected []byte) (procResult, passCounts, error) {
	dir, err := cfg.tmpDir("pass-")
	if err != nil {
		return procResult{}, passCounts{}, err
	}
	defer os.RemoveAll(dir)
	jobs := len(compileJobs(cfg.workload))
	r := runProcess(filepath.Join(cfg.bin, "brbench"), append(compileArgs(cfg), "-cache-dir", dir)...)
	out.attempted += jobs
	if r.err != nil {
		out.failed += jobs
		return r, passCounts{}, r.err
	}
	counts, err := parseCounts(r.stderr)
	if err != nil {
		return r, counts, err
	}
	out.check(counts.builds == jobs)
	out.check(bytes.Equal(r.stdout, expected))
	return r, counts, nil
}

// runCompile is the end-to-end run of paper-suite or ablation-grid:
// cold passes until --seconds have passed, each preceded by set-up
// launches. Spreading the set-up launches over the run makes their median sample
// the host of the whole run, not of its first fraction of a second.
func runCompile(cfg config) (*outcome, error) {
	expected, err := expectedTables(cfg)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	brbench := filepath.Join(cfg.bin, "brbench")

	var setups, walls, cpus, rss, rates, cpuPerBuild []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		// Set-up is everything before the first build: process start,
		// flag parsing and the roster. Table 2 is static, so this launch
		// stops right there.
		for i := 0; i < setupLaunches; i++ {
			r := runProcess(brbench, "-q", "-table", "2")
			if r.err != nil {
				return nil, r.err
			}
			out.check(string(r.stdout) == bench.Table2())
			setups = append(setups, r.wall.Seconds())
		}

		r, counts, err := coldPass(cfg, out, expected)
		if err != nil {
			return nil, err
		}
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		rss = append(rss, float64(r.rssKB)/1024)
		rates = append(rates, float64(counts.builds)/r.wall.Seconds())
		cpuPerBuild = append(cpuPerBuild, ms(r.cpu)/float64(counts.builds))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes, pass wall times %.3f s\n", cfg.workload, len(walls), walls)
	out.metrics["setup_s"] = median(setups)
	out.metrics["wall_s"] = median(walls)
	out.metrics["cpu_s"] = median(cpus)
	out.metrics["max_rss_mb"] = median(rss)
	out.metrics["req_per_s"] = median(rates)
	out.metrics["cpu_ms_per_req"] = median(cpuPerBuild)
	return out, nil
}

// entryFile is one build entry of a disk store.
type entryFile struct {
	fp   string
	size int
}

// buildEntries lists the build entries in a disk store directory,
// smallest first, ties in fingerprint order.
func buildEntries(dir string) ([]entryFile, error) {
	var entries []entryFile
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if kind, err := store.EntryKind(data); err == nil && kind == store.KindBuild {
			entries = append(entries, entryFile{strings.TrimSuffix(d.Name(), ".json"), len(data)})
		}
		return nil
	})
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].size != entries[j].size {
			return entries[i].size < entries[j].size
		}
		return entries[i].fp < entries[j].fp
	})
	return entries, err
}
