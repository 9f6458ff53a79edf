package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"branchreorder/internal/bench"
	"branchreorder/internal/bench/loadgen"
	"branchreorder/internal/bench/store"
	"branchreorder/internal/bench/storenet"
	"branchreorder/internal/bench/storenet/queue"
	"branchreorder/internal/lower"
	"branchreorder/internal/profile"
	"branchreorder/internal/workload"
)

// The store-mixed traffic. The offered rate is fixed, not searched for.
// With entries of real size, 25 req/s keeps brstored near a quarter of
// one CPU on a 2-CPU host and the generator within a few ms of each due
// time, and the largest entries' GETs (~30 ms of work on both sides)
// seldom overlap: at 40 req/s they did more often, and their median
// latency moved from run to run with how the requests met; at 150 req/s
// brstored fell behind (85 req/s served) and latency measured the queue
// rather than the server's work. Batches hold 4
// entries: a 16-entry batch of real entries held one of the nproc
// connections for over 100 ms, and the requests queued behind it set the
// p99 differently on every run.
const (
	offeredRate = 25 // requests per second
	batchSize   = 4  // entries per batch GET or PUT
	population  = 64 // seeded entries the GETs draw from
	hotSet      = 8  // the first population entries, which take hotWeight of the GET hits
	classes     = 4  // distinct records the traffic carries, by size
	hotWeight   = 0.8
	missFrac    = 0.1
	storePasses = 6 // fresh brstored processes per run
	seedChunk   = 16
	opTimeout   = 5 * time.Second
)

var storeMix = loadgen.Mix{Get: 70, Put: 20, Batch: 5, Queue: 5}

// mixUnit divides every weight of storeMix, so a block of
// storeMix.Total()/mixUnit requests holds the mix exactly.
const mixUnit = 5

// tripCounter wraps the HTTP transport storenet.Client sends through, so
// retries show: every round trip of a load request beyond the first of
// an observed client operation is one. Set-up traffic carries no
// tripKey and is not counted.
type tripCounter struct {
	base  http.RoundTripper
	trips atomic.Int64
}

type tripKey struct{}

func (t *tripCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Context().Value(tripKey{}) != nil {
		t.trips.Add(1)
	}
	return t.base.RoundTrip(r)
}

// retries is the number of round trips beyond one per operation stats
// observed, counting round trips from when stats was created.
func (t *tripCounter) retries(stats *clientStats) int64 {
	return max(t.trips.Load()-stats.tripsBefore-stats.observations.Load(), 0)
}

var installTrips sync.Once
var trips *tripCounter

// countTrips installs the counting transport as http.DefaultTransport,
// which is what storenet.Client uses, with room for one idle connection
// per worker.
func countTrips() *tripCounter {
	installTrips.Do(func() {
		base := http.DefaultTransport.(*http.Transport).Clone()
		base.MaxIdleConnsPerHost = nproc()
		trips = &tripCounter{base: base}
		http.DefaultTransport = trips
	})
	return trips
}

// clientStats counts what the storenet.Client Observer hook reports
// during one run.
type clientStats struct {
	observations, fallbacks atomic.Int64
	tripsBefore             int64 // round trips counted before the run
}

// newClientStats starts counting a run's client operations, installing
// the round-trip counter on first use.
func newClientStats() (*tripCounter, *clientStats) {
	tc := countTrips()
	return tc, &clientStats{tripsBefore: tc.trips.Load()}
}

func (s *clientStats) observe(o storenet.Observation) {
	s.observations.Add(1)
	if o.Outcome == "fallback" {
		s.fallbacks.Add(1)
	}
}

func newClient(url string, stats *clientStats) (*storenet.Client, error) {
	return storenet.NewClient(url, storenet.ClientConfig{
		Timeout: opTimeout,
		// A tripped breaker would answer instantly without the server;
		// every failure must instead surface, and count, per request.
		BreakerThreshold: 1 << 30,
		Observer:         stats.observe,
	})
}

// Entries. Everything is keyed in a "perfbench" namespace, so no key can
// collide with a real build entry, and derived from the seed.

func fingerprintOf(format string, args ...interface{}) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("perfbench "+format, args...)))
	return hex.EncodeToString(sum[:])
}

func popFP(seed, i uint64) string { return fingerprintOf("pop seed=%d i=%d", seed, i) }

func missFP(seed uint64, pass int, i uint64) string {
	return fingerprintOf("miss seed=%d pass=%d i=%d", seed, pass, i)
}

func putFP(seed uint64, pass int, i, j uint64) string {
	return fingerprintOf("put seed=%d pass=%d i=%d j=%d", seed, pass, i, j)
}

// records are the build records of one cold paper-suite pass, smallest
// encoded entry first. Real entries hold both program outputs and the
// 14-entry Mispredicts and Cycles maps, from about 3 KB (wc) to 200 KB
// (pr) encoded, and their size sets what gzip, verification, decoding
// and the disk cost per request.
type records []*store.Record

// class returns the record of size class k: the record at the midpoint
// of the k-th of classes equal slices of the size order. The traffic
// carries these records only, each equally often, so every run carries
// the same work whatever the seed, from small entries to large ones.
func (rs records) class(k uint64) *store.Record {
	return rs[int((float64(k%classes)+0.5)/classes*float64(len(rs)))]
}

// classOf maps an upload or population index to its size class. The
// stride 3, coprime to classes, gives every class the same share and
// makes consecutive indices alternate small and large entries.
func classOf(i uint64) uint64 { return 3 * i % classes }

// pick is the record of upload or population index i. The hot set and
// the cold rest each hold every class equally often, so GETs read every
// class equally often.
func (rs records) pick(i uint64) *store.Record { return rs.class(classOf(i)) }

// realRecords runs one cold `brbench -j nproc` pass into a fresh cache
// directory, checks its tables, and returns the build records it wrote.
func realRecords(cfg config, out *outcome) (records, error) {
	dir, err := cfg.tmpDir("records-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	expected, err := os.ReadFile(filepath.Join(cfg.root, "perfbench", "expected", paperSuite+".txt"))
	if err != nil {
		return nil, err
	}
	r := runProcess(filepath.Join(cfg.bin, "brbench"), "-q", "-j", strconv.Itoa(nproc()), "-cache-dir", dir)
	if r.err != nil {
		return nil, r.err
	}
	out.check(bytes.Equal(r.stdout, expected))
	entries, err := buildEntries(dir)
	if err != nil {
		return nil, err
	}
	src, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	rs := make(records, 0, len(entries))
	for _, e := range entries {
		rec, st := src.Get(e.fp)
		if st != store.Hit {
			return nil, fmt.Errorf("cold pass entry %s did not read back", e.fp)
		}
		rs = append(rs, rec)
	}
	if len(rs) != len(bench.SuiteJobs(workload.All())) {
		return nil, fmt.Errorf("cold pass wrote %d build entries, want one per job", len(rs))
	}
	return rs, nil
}

// sameRecord reports whether got carries want's program outputs.
func sameRecord(got, want *store.Record) bool {
	return got != nil && got.Base != nil && got.Reord != nil &&
		bytes.Equal(got.Base.Output, want.Base.Output) && bytes.Equal(got.Reord.Output, want.Reord.Output)
}

// jobSpec is a distinct farm job per (seed, pass, op), so every queue
// lifecycle enqueues a new job and a lease always finds one pending.
func jobSpec(seed uint64, pass int, i uint64) queue.JobSpec {
	roster := workload.All()
	opts := bench.BaseOptions(lower.SetIII)
	opts.Profile = profile.Config{Seed: seed<<32 ^ uint64(pass)<<24 ^ i}
	return queue.JobSpec{Workload: roster[i%uint64(len(roster))].Name, Opts: opts}
}

// plan is one pass's request stream: a pure function of (seed, pass)
// over the records.
type plan struct {
	seed uint64
	pass int
	recs records
	ops  []loadgen.Op
}

// newPlan lays out n requests in blocks of 20, each holding the mix
// exactly — 14 GETs, 4 PUTs, one batch and one queue lifecycle — in a
// seeded order. Batches alternate between get and put; missFrac of the
// GETs miss and hotWeight of the rest go to the hot set. GET keys are
// dealt from seeded shuffles of the hot and cold sets, so every entry is
// read equally often within its set, and uploads take consecutive
// records. A short run then carries the same work whatever the seed; the
// seed decides the keys, the order and which requests meet.
func newPlan(seed uint64, pass, n int, recs records) *plan {
	rng := rand.New(rand.NewPCG(seed, uint64(pass)))
	var block []loadgen.OpKind
	for kind, count := range map[loadgen.OpKind]int{
		loadgen.OpGet: storeMix.Get, loadgen.OpPut: storeMix.Put,
		loadgen.OpBatchGet: storeMix.Batch, loadgen.OpQueue: storeMix.Queue,
	} {
		for j := 0; j < count/mixUnit; j++ {
			block = append(block, kind)
		}
	}
	slices.Sort(block)
	hot, cold := newDeck(rng, 0, hotSet), newDeck(rng, hotSet, population)
	p := &plan{seed: seed, pass: pass, recs: recs, ops: make([]loadgen.Op, 0, n)}
	var gets, hits, batches int
	var uploads uint64 // records PUTs and batch PUTs have taken so far
	for len(p.ops) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			if len(p.ops) == n {
				break
			}
			op := loadgen.Op{Kind: kind, Index: uint64(len(p.ops))}
			switch kind {
			case loadgen.OpPut:
				op.Index = uploads
				uploads++
			case loadgen.OpGet:
				gets++
				if op.Miss = every(gets, missFrac); !op.Miss {
					hits++
					if every(hits, hotWeight) {
						op.Index = hot.next()
					} else {
						op.Index = cold.next()
					}
				}
			case loadgen.OpBatchGet:
				batches++
				if batches%2 == 0 {
					op.Kind = loadgen.OpBatchPut
					op.Index = uploads
					uploads += batchSize
				} else {
					op.Index = rng.Uint64N(population)
				}
			}
			p.ops = append(p.ops, op)
		}
	}
	return p
}

// every reports whether the k-th event (from 1) is one of a frac share
// spread evenly over the sequence.
func every(k int, frac float64) bool {
	return int(float64(k)*frac) > int(float64(k-1)*frac)
}

// deck deals population indices in [lo, hi) from seeded shuffles, each
// index once per round.
type deck struct {
	rng   *rand.Rand
	cards []uint64
	pos   int
}

func newDeck(rng *rand.Rand, lo, hi uint64) *deck {
	d := &deck{rng: rng}
	for i := lo; i < hi; i++ {
		d.cards = append(d.cards, i)
	}
	d.pos = len(d.cards)
	return d
}

func (d *deck) next() uint64 {
	if d.pos == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// putRecord is the record upload j of op i sends; j is 0 for a PUT and
// 1 to batchSize within a batch PUT.
func (p *plan) putRecord(i int, j uint64) *store.Record {
	k := p.ops[i].Index
	if j > 0 {
		k += j - 1
	}
	return p.recs.pick(k)
}

// seedPopulation uploads the entries GETs draw from.
func seedPopulation(ctx context.Context, c *storenet.Client, seed uint64, recs records) error {
	for base := uint64(0); base < population; base += seedChunk {
		entries := map[string][]byte{}
		for i := base; i < base+seedChunk && i < population; i++ {
			fp := popFP(seed, i)
			data, err := store.Encode(fp, recs.pick(i))
			if err != nil {
				return err
			}
			entries[fp] = data
		}
		stored, rejected, err := c.PutBatch(ctx, entries)
		if err != nil {
			return fmt.Errorf("seeding population: %w", err)
		}
		if len(rejected) > 0 || stored != len(entries) {
			return fmt.Errorf("seeding population: server stored %d of %d entries", stored, len(entries))
		}
	}
	return nil
}

// checkEntry reports whether data is population entry i, decoded and
// verified under fp.
func checkEntry(data []byte, fp string, p *plan, i uint64) bool {
	rec, err := store.Decode(data, fp)
	return err == nil && sameRecord(rec, p.recs.pick(i))
}

// execOp sends planned op i through c and checks the answer.
func execOp(ctx context.Context, c *storenet.Client, p *plan, i int, worker string) bool {
	op := p.ops[i]
	seed := p.seed
	switch op.Kind {
	case loadgen.OpGet:
		if op.Miss {
			_, out := c.Get(ctx, missFP(seed, p.pass, op.Index))
			return out == storenet.Miss
		}
		rec, out := c.Get(ctx, popFP(seed, op.Index))
		return out == storenet.Hit && sameRecord(rec, p.recs.pick(op.Index))
	case loadgen.OpPut:
		return c.Put(ctx, putFP(seed, p.pass, uint64(i), 0), p.putRecord(i, 0)) == nil
	case loadgen.OpBatchGet:
		fps := make([]string, batchSize)
		idx := make([]uint64, batchSize)
		for j := range fps {
			idx[j] = (op.Index + uint64(j)) % population
			fps[j] = popFP(seed, idx[j])
		}
		got, err := c.GetBatch(ctx, fps)
		if err != nil || len(got) != batchSize {
			return false
		}
		for j, fp := range fps {
			if !checkEntry(got[fp], fp, p, idx[j]) {
				return false
			}
		}
		return true
	case loadgen.OpBatchPut:
		entries := map[string][]byte{}
		for j := uint64(1); j <= batchSize; j++ {
			fp := putFP(seed, p.pass, uint64(i), j)
			data, err := store.Encode(fp, p.putRecord(i, j))
			if err != nil {
				return false
			}
			entries[fp] = data
		}
		stored, rejected, err := c.PutBatch(ctx, entries)
		return err == nil && stored == batchSize && len(rejected) == 0
	case loadgen.OpQueue:
		resp, err := c.EnqueueJobs(ctx, []queue.JobSpec{jobSpec(seed, p.pass, uint64(i))})
		if err != nil || resp.Accepted != 1 {
			return false
		}
		lease, _, err := c.LeaseJob(ctx, worker)
		if err != nil || lease == nil {
			return false
		}
		if c.HeartbeatJob(ctx, lease.ID, lease.Token) != nil {
			return false
		}
		return c.CompleteJob(ctx, lease.ID, lease.Token, worker, "") == nil
	}
	return false
}

// opRecord is one sent request, timed from when it was due.
type opRecord struct {
	kind    loadgen.OpKind
	late    time.Duration // sent - due
	latency time.Duration // done - due
	ok      bool
}

// openLoop sends the plan at offeredRate from nproc workers, each with
// one connection: request i is due at start + i/rate whether or not
// earlier ones have finished. It returns every request's record and the
// window from the start to the last completion.
func openLoop(url string, p *plan, stats *clientStats) ([]opRecord, time.Duration, error) {
	workers := nproc()
	clients := make([]*storenet.Client, workers)
	for w := range clients {
		c, err := newClient(url, stats)
		if err != nil {
			return nil, 0, err
		}
		clients[w] = c
	}
	recs := make([]opRecord, len(p.ops))
	interval := time.Second / offeredRate
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(c *storenet.Client, worker string) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.ops) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				ctx, cancel := context.WithTimeout(context.WithValue(context.Background(), tripKey{}, true), 4*opTimeout)
				ok := execOp(ctx, c, p, i, worker)
				cancel()
				done := time.Now()
				recs[i] = opRecord{kind: p.ops[i].Kind, late: sent.Sub(due), latency: done.Sub(due), ok: ok}
			}
		}(clients[w], fmt.Sprintf("perfbench-%d", w))
	}
	wg.Wait()
	return recs, time.Since(start), nil
}

// storedProc is one running brstored.
type storedProc struct {
	cmd    *exec.Cmd
	url    string
	logged chan struct{} // closed once stderr is drained
}

// startStored starts a fresh brstored (store and work queue) on pool and
// returns once it has printed its address.
func startStored(cfg config, pool string) (*storedProc, error) {
	cmd := exec.Command(filepath.Join(cfg.bin, "brstored"), "-dir", pool, "-addr", "127.0.0.1:0", "-queue")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &storedProc{cmd: cmd, logged: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.logged)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if _, url, ok := strings.Cut(line, " on http://"); ok && !sent && strings.Contains(line, "serving") {
				addr <- "http://" + url
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case url, ok := <-addr:
		if ok {
			p.url = url
			return p, nil
		}
	case <-time.After(30 * time.Second):
	}
	p.stop()
	return nil, fmt.Errorf("brstored did not start")
}

// stop shuts brstored down gracefully, waits for it, and returns its
// peak resident set.
func (p *storedProc) stop() (rssKB int64, err error) {
	p.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(20*time.Second, func() { p.cmd.Process.Kill() })
	<-p.logged
	err = p.cmd.Wait()
	timer.Stop()
	if ru, ok := processUsage(p.cmd.ProcessState); ok {
		rssKB = ru.Maxrss
	}
	return rssKB, err
}

// launchStored starts a fresh brstored on pool and waits until it
// answers /metrics. It returns the process, a client for set-up traffic,
// and the time from start until the answer: brstored's set-up.
func launchStored(cfg config, pool string) (*storedProc, *storenet.Client, time.Duration, error) {
	start := time.Now()
	proc, err := startStored(cfg, pool)
	if err != nil {
		return nil, nil, 0, err
	}
	c, err := storenet.NewClient(proc.url, storenet.ClientConfig{Timeout: opTimeout})
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err = c.Metrics(ctx)
		cancel()
	}
	if err != nil {
		proc.stop()
		return nil, nil, 0, fmt.Errorf("brstored not ready: %w", err)
	}
	return proc, c, time.Since(start), nil
}

// storedReady launches a fresh brstored on an empty pool, stops it once
// it answers, and returns how long it took to answer.
func storedReady(cfg config) (time.Duration, error) {
	pool, err := cfg.tmpDir("pool-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(pool)
	proc, _, ready, err := launchStored(cfg, pool)
	if err != nil {
		return 0, err
	}
	if _, err := proc.stop(); err != nil {
		return 0, fmt.Errorf("brstored: %w", err)
	}
	return ready, nil
}

// storePass is one fresh brstored under one pass of traffic.
type storePass struct {
	ready   time.Duration // brstored start until it answered
	seeding time.Duration // uploading the population
	window  time.Duration
	loadCPU time.Duration // brstored user+sys CPU during the load window
	rssKB   int64
	recs    []opRecord
}

// runStorePass starts brstored on a fresh pool, seeds it, sends the
// pass's plan, and stops it.
func runStorePass(cfg config, p *plan, stats *clientStats) (*storePass, error) {
	pool, err := cfg.tmpDir("pool-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(pool)
	proc, setup, ready, err := launchStored(cfg, pool)
	if err != nil {
		return nil, err
	}
	sp := &storePass{ready: ready}
	err = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		start := time.Now()
		if err := seedPopulation(ctx, setup, p.seed, p.recs); err != nil {
			return err
		}
		sp.seeding = time.Since(start)
		cpu0, err := processCPU(proc.cmd.Process.Pid)
		if err != nil {
			return err
		}
		if sp.recs, sp.window, err = openLoop(proc.url, p, stats); err != nil {
			return err
		}
		cpu1, err := processCPU(proc.cmd.Process.Pid)
		sp.loadCPU = cpu1 - cpu0
		return err
	}()
	rss, stopErr := proc.stop()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, fmt.Errorf("brstored: %w", stopErr)
	}
	sp.rssKB = rss
	return sp, nil
}

// processCPU reads a running process's user+sys CPU from procfs, whose
// clock ticks are 1/100 s on Linux.
func processCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var utime, stime int64
	if _, err := fmt.Sscan(f[11], &utime); err != nil {
		return 0, err
	}
	if _, err := fmt.Sscan(f[12], &stime); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// passOps is how many requests one pass sends.
func passOps(cfg config) int {
	return int(float64(offeredRate) * cfg.seconds / storePasses)
}

// runStore is the end-to-end run of store-mixed. One cold brbench pass
// makes the records, untimed. Then storePasses fresh brstored processes
// are started, seeded and loaded, each for its share of --seconds, and
// before each pass setupLaunches more are started and stopped to time
// set-up. The metrics are medians over passes, so one pass a neighbour on
// the host disturbs does not set the result. Request latencies are
// printed on stderr, not reported as metrics: see layers.json.
func runStore(cfg config) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	recs, err := realRecords(cfg, out)
	if err != nil {
		return nil, err
	}
	tc, stats := newClientStats()
	var setups, windows, cpus, rss, rates, cpuPerReq, late, gets, puts []float64
	for pass := 0; pass < storePasses; pass++ {
		for i := 0; i < setupLaunches; i++ {
			ready, err := storedReady(cfg)
			if err != nil {
				return nil, err
			}
			setups = append(setups, ready.Seconds())
		}
		sp, err := runStorePass(cfg, newPlan(cfg.seed, pass, passOps(cfg), recs), stats)
		if err != nil {
			return nil, err
		}
		okOps := 0
		for _, r := range sp.recs {
			out.check(r.ok)
			if r.ok {
				okOps++
			}
			late = append(late, ms(r.late))
			switch r.kind {
			case loadgen.OpGet:
				gets = append(gets, ms(r.latency))
			case loadgen.OpPut:
				puts = append(puts, ms(r.latency))
			}
		}
		setups = append(setups, sp.ready.Seconds())
		windows = append(windows, sp.window.Seconds())
		cpus = append(cpus, sp.loadCPU.Seconds())
		rss = append(rss, float64(sp.rssKB)/1024)
		rates = append(rates, float64(okOps)/sp.window.Seconds())
		cpuPerReq = append(cpuPerReq, ms(sp.loadCPU)/float64(max(okOps, 1)))
		fmt.Fprintf(os.Stderr, "perfbench: store-mixed pass %d: ready %.3fs, seeding %.3fs, %.3f cpu ms/req\n",
			pass, sp.ready.Seconds(), sp.seeding.Seconds(), cpuPerReq[pass])
	}
	fmt.Fprintf(os.Stderr, "perfbench: store-mixed: %d requests, %d failed, %d fallbacks, %d retries, late p99 %.3f ms, get p50/p99 %.3f/%.3f ms, put p50/p99 %.3f/%.3f ms\n",
		out.attempted, out.failed, stats.fallbacks.Load(), tc.retries(stats), quantile(late, 0.99),
		quantile(gets, 0.5), quantile(gets, 0.99), quantile(puts, 0.5), quantile(puts, 0.99))
	out.metrics["setup_s"] = median(setups)
	out.metrics["wall_s"] = median(windows)
	out.metrics["cpu_s"] = median(cpus)
	out.metrics["max_rss_mb"] = median(rss)
	out.metrics["req_per_s"] = median(rates)
	out.metrics["cpu_ms_per_req"] = median(cpuPerReq)
	return out, nil
}
