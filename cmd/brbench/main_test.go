package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"branchreorder/internal/bench/store"
	"branchreorder/internal/bench/storenet"
)

func capture(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return out.String(), errw.String(), code
}

// The determinism guard of the worker pool: brbench -j N stdout must be
// byte-identical to serial -j 1 stdout, for a single table and for the
// whole table+figure dump.
func TestParallelOutputMatchesSerial(t *testing.T) {
	for _, sel := range [][]string{
		{"-table", "8"},
		{}, // everything
	} {
		base := append([]string{"-q", "-workloads", "wc,sort,lex"}, sel...)
		serial, _, code := capture(t, append(base, "-j", "1")...)
		if code != 0 {
			t.Fatalf("%v -j 1 exited %d", sel, code)
		}
		parallel, _, code := capture(t, append(base, "-j", "8")...)
		if code != 0 {
			t.Fatalf("%v -j 8 exited %d", sel, code)
		}
		if parallel != serial {
			t.Errorf("%v: -j 8 stdout differs from -j 1 stdout", sel)
		}
		if len(serial) == 0 {
			t.Errorf("%v: empty output", sel)
		}
	}
}

func TestStaticTablesNeedNoBuilds(t *testing.T) {
	out, errw, code := capture(t, "-table", "2")
	if code != 0 || !strings.Contains(out, "Heuristics") {
		t.Fatalf("-table 2: code %d, out %q", code, out)
	}
	if strings.Contains(errw, "builds") {
		t.Errorf("-table 2 ran the engine: %q", errw)
	}
}

func TestSummaryLine(t *testing.T) {
	_, errw, code := capture(t, "-workloads", "wc", "-table", "4")
	if code != 0 {
		t.Fatalf("exited %d", code)
	}
	if !strings.Contains(errw, "builds") || !strings.Contains(errw, "cache hits") {
		t.Errorf("missing timing/cache summary on stderr: %q", errw)
	}
	_, errw, code = capture(t, "-q", "-workloads", "wc", "-table", "4")
	if code != 0 {
		t.Fatalf("-q exited %d", code)
	}
	if errw != "" {
		t.Errorf("-q still wrote to stderr: %q", errw)
	}
}

func TestBadInputs(t *testing.T) {
	if _, _, code := capture(t, "-workloads", "nosuch", "-table", "4"); code == 0 {
		t.Error("unknown workload accepted")
	}
	if _, _, code := capture(t, "-workloads", ",", "-table", "4"); code == 0 {
		t.Error("empty workload list accepted")
	}
	if _, _, code := capture(t, "-workloads", "wc", "-table", "99"); code == 0 {
		t.Error("unknown table accepted")
	}
	if _, _, code := capture(t, "-workloads", "wc", "-figure", "9"); code == 0 {
		t.Error("unknown figure accepted")
	}
	if _, _, code := capture(t, "-nosuchflag"); code != 2 {
		t.Error("bad flag not rejected with usage exit code")
	}
}

// A bad experiment selector must fail before any build runs or any
// cache tier is written, not after paying for the whole suite.
func TestBadSelectorFailsBeforeBuilding(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-table", "99"}, "no table 99"},
		{[]string{"-table", "1"}, "no table 1"},
		{[]string{"-figure", "9"}, "no figure 9"},
		{[]string{"-figure", "14"}, "no figure 14"},
		{[]string{"-table", "4", "-figure", "11"}, "pick one"},
	} {
		cache := filepath.Join(t.TempDir(), "cache")
		args := append([]string{"-workloads", "wc", "-cache-dir", cache}, tc.args...)
		out, errw, code := capture(t, args...)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1", tc.args, code)
		}
		if !strings.Contains(errw, tc.want) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, errw, tc.want)
		}
		if strings.Contains(errw, "building") || out != "" {
			t.Errorf("%v: ran the suite before rejecting the selector: %q", tc.args, errw)
		}
		if _, err := os.Stat(cache); !os.IsNotExist(err) {
			t.Errorf("%v: touched -cache-dir before rejecting the selector", tc.args)
		}
	}
}

// Two exported shards merged back together must render byte-identically
// to a single-process run, with zero builds in the merge step.
func TestShardExportMergeMatchesSingleProcess(t *testing.T) {
	dir := t.TempDir()
	s0, s1 := filepath.Join(dir, "s0.json"), filepath.Join(dir, "s1.json")
	base := []string{"-q", "-workloads", "wc,sort,lex"}

	single, _, code := capture(t, base...)
	if code != 0 {
		t.Fatalf("single-process run exited %d", code)
	}
	if _, _, code := capture(t, append(base, "-shard", "0/2", "-export", s0)...); code != 0 {
		t.Fatalf("shard 0/2 exited %d", code)
	}
	if _, _, code := capture(t, append(base, "-shard", "1/2", "-export", s1)...); code != 0 {
		t.Fatalf("shard 1/2 exited %d", code)
	}
	merged, stderr, code := capture(t, "-workloads", "wc,sort,lex", "-merge", s0+","+s1)
	if code != 0 {
		t.Fatalf("merge exited %d: %s", code, stderr)
	}
	if merged != single {
		t.Errorf("merged stdout differs from single-process stdout")
	}
	if !strings.Contains(stderr, "0 builds") {
		t.Errorf("merge rebuilt jobs the shards already measured: %q", stderr)
	}
	// The shards' own cache activity must round-trip through the export
	// files into the merged summary: 9 jobs built across both shards.
	if !strings.Contains(stderr, "merged shards: 9 builds") {
		t.Errorf("merged summary does not account for shard activity: %q", stderr)
	}
}

// The ablation study must shard and merge like the suite: the merged
// table byte-identical to the direct one, with zero rebuilds.
func TestAblationShardMergeMatchesDirect(t *testing.T) {
	dir := t.TempDir()
	a0, a1 := filepath.Join(dir, "a0.json"), filepath.Join(dir, "a1.json")
	base := []string{"-q", "-ablation", "-workloads", "wc,sort"}

	direct, _, code := capture(t, base...)
	if code != 0 {
		t.Fatalf("direct ablation exited %d", code)
	}
	if _, _, code := capture(t, append(base, "-shard", "0/2", "-export", a0)...); code != 0 {
		t.Fatalf("ablation shard 0/2 exited %d", code)
	}
	if _, _, code := capture(t, append(base, "-shard", "1/2", "-export", a1)...); code != 0 {
		t.Fatalf("ablation shard 1/2 exited %d", code)
	}
	merged, stderr, code := capture(t, "-ablation", "-workloads", "wc,sort", "-merge", a0+","+a1)
	if code != 0 {
		t.Fatalf("ablation merge exited %d: %s", code, stderr)
	}
	if merged != direct {
		t.Errorf("merged ablation table differs from the direct one:\n--- merged ---\n%s--- direct ---\n%s", merged, direct)
	}
	if !strings.Contains(stderr, "brbench: 0 builds") {
		t.Errorf("ablation merge rebuilt sharded jobs: %q", stderr)
	}
}

// A second run against a warm -cache-dir must execute zero builds and
// print identical tables.
func TestCacheDirWarmRun(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-workloads", "wc,sort", "-cache-dir", dir, "-table", "4"}
	cold, coldErr, code := capture(t, args...)
	if code != 0 {
		t.Fatalf("cold run exited %d", code)
	}
	if !strings.Contains(coldErr, "disk hits") || !strings.Contains(coldErr, "disk misses") {
		t.Errorf("summary missing disk-tier counters: %q", coldErr)
	}
	warm, warmErr, code := capture(t, args...)
	if code != 0 {
		t.Fatalf("warm run exited %d", code)
	}
	if warm != cold {
		t.Errorf("warm-cache stdout differs from cold stdout")
	}
	if !strings.Contains(warmErr, "brbench: 0 builds") {
		t.Errorf("warm run still built: %q", warmErr)
	}
	if strings.Contains(warmErr, "0 disk hits") {
		t.Errorf("warm run served nothing from disk: %q", warmErr)
	}
}

// -json must dump one record per (heuristic set, workload) pair in the
// export schema.
func TestJSONDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")
	_, _, code := capture(t, "-q", "-workloads", "wc,sort", "-table", "4", "-json", path)
	if code != 0 {
		t.Fatalf("exited %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  int `json:"schema"`
		Records []struct {
			Workload string          `json:"workload"`
			Set      int             `json:"set"`
			Options  json.RawMessage `json:"options"`
			Base     json.RawMessage `json:"base"`
			Reord    json.RawMessage `json:"reord"`
			Static   int64           `json:"staticBase"`
		} `json:"records"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if doc.Schema == 0 {
		t.Error("-json output missing schema version")
	}
	if want := 3 * 2; len(doc.Records) != want { // 3 sets × 2 workloads
		t.Errorf("%d records, want %d", len(doc.Records), want)
	}
	for _, r := range doc.Records {
		if r.Workload == "" || r.Base == nil || r.Reord == nil || r.Static <= 0 {
			t.Errorf("incomplete record: %+v", r)
		}
	}
}

// An unknown -workloads name must fail listing the valid roster.
func TestUnknownWorkloadListsRoster(t *testing.T) {
	_, stderr, code := capture(t, "-workloads", "nosuch", "-table", "4")
	if code == 0 {
		t.Fatal("unknown workload accepted")
	}
	for _, want := range []string{`"nosuch"`, "valid workloads", "wc", "yacc", "hyphen"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("error does not mention %q: %q", want, stderr)
		}
	}
}

func TestShardFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-shard", "0/2"},                                      // -shard without -export
		{"-shard", "2/2", "-export", "x.json"},                 // index out of range
		{"-shard", "0-2", "-export", "x.json"},                 // malformed
		{"-shard", "0/2/9", "-export", "x.json"},               // trailing junk
		{"-shard", "-1/2", "-export", "x.json"},                // negative
		{"-merge", "a.json", "-export", "b.json"},              // merge+export
		{"-merge", "a.json", "-shard", "0/2"},                  // merge+shard
		{"-export", "x.json", "-table", "4"},                   // export renders nothing
		{"-ablation", "-json", "x.json"},                       // ablation+json
		{"-cache-gc", "1h"},                                    // gc without a cache dir
		{"-cache-gc", "-1h", "-cache-dir", t.TempDir()},        // negative age
		{"-store-url", "not a url", "-table", "4"},             // unusable store URL
		{"-merge", filepath.Join(t.TempDir(), "missing.json")}, // unreadable shard
	}
	for _, args := range cases {
		if _, _, code := capture(t, args...); code == 0 {
			t.Errorf("%v accepted", args)
		}
	}
}

// The acceptance loop of the fleet-wide store: one machine populates a
// brstored server, and a second machine — cold memo, cold disk cache —
// runs with zero builds and byte-identical output.
func TestStoreURLWarmStartsColdCache(t *testing.T) {
	pool, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(storenet.NewServer(pool).Handler())
	defer hs.Close()

	local, _, code := capture(t, "-q", "-workloads", "wc,sort", "-table", "4")
	if code != 0 {
		t.Fatalf("local-only run exited %d", code)
	}

	first, firstErr, code := capture(t, "-workloads", "wc,sort", "-table", "4",
		"-cache-dir", t.TempDir(), "-store-url", hs.URL)
	if code != 0 {
		t.Fatalf("first -store-url run exited %d: %s", code, firstErr)
	}
	if !strings.Contains(firstErr, "remote misses") || !strings.Contains(firstErr, "remote puts") {
		t.Errorf("summary missing remote counters: %q", firstErr)
	}

	second, secondErr, code := capture(t, "-workloads", "wc,sort", "-table", "4",
		"-cache-dir", t.TempDir(), "-store-url", hs.URL)
	if code != 0 {
		t.Fatalf("second -store-url run exited %d: %s", code, secondErr)
	}
	if first != local || second != local {
		t.Errorf("-store-url output differs from local-only output")
	}
	if !strings.Contains(secondErr, "brbench: 0 builds") {
		t.Errorf("second run over a warm pool still built: %q", secondErr)
	}
	if strings.Contains(secondErr, "0 remote hits") || !strings.Contains(secondErr, "remote hits") {
		t.Errorf("second run did not hit the remote store: %q", secondErr)
	}
}

// An unreachable -store-url must cost fallbacks, not the run: output
// stays correct and the summary reports the degradation.
func TestStoreURLDeadServerFallsBack(t *testing.T) {
	local, _, code := capture(t, "-q", "-workloads", "wc", "-table", "4")
	if code != 0 {
		t.Fatalf("local-only run exited %d", code)
	}
	out, stderr, code := capture(t, "-workloads", "wc", "-table", "4",
		"-store-url", "http://127.0.0.1:1", "-store-timeout", "1s")
	if code != 0 {
		t.Fatalf("run with a dead store exited %d: %s", code, stderr)
	}
	if out != local {
		t.Errorf("dead-store output differs from local-only output")
	}
	if !strings.Contains(stderr, "falling back to local tiers") {
		t.Errorf("missing degradation notice: %q", stderr)
	}
	if strings.Contains(stderr, "0 remote fallbacks") || !strings.Contains(stderr, "remote fallbacks") {
		t.Errorf("summary does not report the fallbacks: %q", stderr)
	}
}

// -cache-gc must evict entries older than the bound before the run, so
// the evicted jobs rebuild and the summary shows the collection.
func TestCacheGCFlag(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-workloads", "wc", "-cache-dir", dir, "-table", "4"}
	if _, _, code := capture(t, args...); code != 0 {
		t.Fatal("cold run failed")
	}
	// Backdate every entry beyond the GC bound. The cold run stores one
	// build record and one stage-2 profile record per heuristic set.
	old := time.Now().Add(-48 * time.Hour)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return os.Chtimes(path, old, old)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, stderr, code := capture(t, append(args, "-cache-gc", "24h")...)
	if code != 0 {
		t.Fatalf("gc run exited %d", code)
	}
	if !strings.Contains(stderr, "cache gc evicted 6 of 6 entries") {
		t.Errorf("gc summary missing or wrong: %q", stderr)
	}
	if !strings.Contains(stderr, "3 builds") {
		t.Errorf("evicted jobs were not rebuilt: %q", stderr)
	}
}

// The ablation study must run through the shared engine, render, and
// measure each workload's baseline once.
func TestAblationViaEngine(t *testing.T) {
	out, errOut, code := capture(t, "-ablation", "-workloads", "wc,sort")
	if code != 0 {
		t.Fatalf("exited %d", code)
	}
	for _, want := range []string{"no-cmp-reuse", "wc", "sort"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation table missing %q:\n%s", want, out)
		}
	}
	// Ten reordered sims, and one baseline sim per workload shared by
	// its five variants.
	if want := "brbench: sims: 12 run (8 baselines reused)\n"; !strings.Contains(errOut, want) {
		t.Errorf("stderr missing %q:\n%s", want, errOut)
	}
}
