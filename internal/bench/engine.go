package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"branchreorder/internal/bench/store"
	"branchreorder/internal/bench/storenet"
	"branchreorder/internal/lower"
	"branchreorder/internal/memo"
	"branchreorder/internal/pipeline"
	"branchreorder/internal/sim"
	"branchreorder/internal/workload"
)

// Key identifies one build+measure job: a workload compiled under one
// full pipeline configuration. pipeline.Options is comparable, so ablation
// variants and the Section 10 extension get distinct cache slots while the
// standard per-set builds are shared by every table and figure.
type Key struct {
	Workload string
	Opts     pipeline.Options
}

// BaseOptions is the standard evaluation configuration for a heuristic
// set — what every table and figure of the paper's evaluation uses.
func BaseOptions(set lower.HeuristicSet) pipeline.Options {
	return pipeline.Options{Switch: set, Optimize: true}
}

// EngineStats summarizes an engine's cache behaviour across its tiers
// (memo → disk → remote). It is the serializable store.TierStats, so
// shard exports carry it and merged runs can total every shard's cache
// activity.
type EngineStats = store.TierStats

// Engine runs build+measure jobs on a bounded worker pool and memoizes
// every result by Key, so regenerating all of Tables 4-8, Figures 11-13
// and the ablation study compiles and simulates each configuration
// exactly once. An Engine is safe for concurrent use.
type Engine struct {
	jobs     int
	progress io.Writer
	sem      chan struct{}
	disk     *store.Store     // optional second cache tier; nil means memory-only
	remote   *storenet.Client // optional third tier: a fleet-shared brstored server

	// stages memoizes the build pipeline's cacheable stages (frontend,
	// detect+train) across jobs, so the ablation grid performs one
	// frontend and one training run per (workload, set, detection
	// config) instead of one per variant. When a disk or remote tier is
	// attached, stage-2 products also persist as content-addressed
	// profile records, letting warm caches skip training runs even for
	// Transform combinations that miss the whole-build tier.
	stages *pipeline.StageCache
	// baselines memoizes baseline measurements by frontend key and test
	// input. Every variant built from one frontend shares its Baseline
	// program, so the ablation grid and the profile study measure each
	// (frontend, test input) pair once instead of once per variant.
	baselines *memo.Cache[*sim.Measurement]

	mu    sync.Mutex // guards cache, stats, and progress writes
	cache map[Key]*entry
	stats EngineStats
}

// entry is one memoized job. done is closed exactly once, after run/err
// are final; waiters block on it rather than on the worker pool.
type entry struct {
	done chan struct{}
	run  *ProgramRun
	err  error
}

// NewEngine returns an engine running at most jobs builds concurrently
// (GOMAXPROCS when jobs <= 0). Progress lines go to progress when
// non-nil; their order depends on scheduling, so pipe them to a log
// destination, not into table output.
func NewEngine(jobs int, progress io.Writer) *Engine {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		jobs:     jobs,
		progress: progress,
		sem:      make(chan struct{}, jobs),
		cache:    map[Key]*entry{},
		stages:   pipeline.NewStageCache(),
		// The evaluation matrix has 51 distinct (frontend, test input)
		// pairs; the bound leaves room while keeping a long-lived
		// engine's memo finite.
		baselines: memo.New[*sim.Measurement](96),
	}
	e.stages.Profiles = profileTier{e}
	return e
}

// StageCache exposes the engine's build-stage cache so co-operating
// experiments (e.g. pipeline.AutoBuildWith) can share its frontends and
// training runs.
func (e *Engine) StageCache() *pipeline.StageCache { return e.stages }

// Jobs reports the worker-pool bound.
func (e *Engine) Jobs() int { return e.jobs }

// UseStore attaches a disk store as a second cache tier behind the
// in-memory memo: every memo miss probes the store before building, and
// every fresh build is written back. Attach it before the first Get.
func (e *Engine) UseStore(s *store.Store) { e.disk = s }

// UseRemote attaches a fleet-shared network store as a third cache tier
// behind the disk store: probed only when memo and disk both miss, and
// written back after every fresh build. Remote hits are written through
// to the disk tier (when one is attached) so the next run on this
// machine warms locally. Remote failures never fail a run — the client
// degrades to the local tiers and the fallback is counted. Attach it
// before the first Get.
func (e *Engine) UseRemote(c *storenet.Client) { e.remote = c }

// Seed installs an already-measured run — typically loaded from an
// exported shard — into the memo cache, so a later Get for the same
// (workload, options) key is a cache hit instead of a rebuild. An
// existing entry wins; seeding never overwrites.
func (e *Engine) Seed(r *ProgramRun) {
	key := Key{Workload: r.Workload.Name, Opts: r.Opts}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.cache[key]; ok {
		return
	}
	done := make(chan struct{})
	close(done)
	e.cache[key] = &entry{done: done, run: r}
	e.stats.Seeded++
}

// Stats returns a snapshot of the cache counters, the per-stage
// counters of the staged build pipeline included.
func (e *Engine) Stats() EngineStats {
	ss := e.stages.Stats()
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.FrontendRuns = ss.FrontendRuns
	s.FrontendHits = ss.FrontendHits
	s.TrainRuns = ss.TrainRuns
	s.TrainHits = ss.TrainHits
	s.SampledTrainRuns = ss.SampledTrainRuns
	s.ProfileMergeHits = ss.ProfileMergeHits
	if e.stats.BuildSeconds != nil {
		s.BuildSeconds = make(map[string]float64, len(e.stats.BuildSeconds))
		for w, sec := range e.stats.BuildSeconds {
			s.BuildSeconds[w] = sec
		}
	}
	return s
}

func (e *Engine) logf(format string, args ...interface{}) {
	if e.progress == nil {
		return
	}
	e.mu.Lock()
	fmt.Fprintf(e.progress, format, args...)
	e.mu.Unlock()
}

// Get returns the memoized run for (w, opts), building and measuring it
// if no other caller has. Concurrent calls for the same key share one
// build; the loser waits for the winner rather than duplicating work.
func (e *Engine) Get(ctx context.Context, w workload.Workload, opts pipeline.Options) (*ProgramRun, error) {
	key := Key{Workload: w.Name, Opts: opts}
	e.mu.Lock()
	if ent, ok := e.cache[key]; ok {
		e.stats.Hits++
		e.mu.Unlock()
		select {
		case <-ent.done:
			return ent.run, ent.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ent := &entry{done: make(chan struct{})}
	e.cache[key] = ent
	e.mu.Unlock()

	// A cancellation is not a result: evict the entry so a later Get
	// with a live context rebuilds instead of replaying the stale error.
	defer func() {
		if ent.err != nil && (errors.Is(ent.err, context.Canceled) || errors.Is(ent.err, context.DeadlineExceeded)) {
			e.mu.Lock()
			if e.cache[key] == ent {
				delete(e.cache, key)
			}
			e.mu.Unlock()
		}
		close(ent.done)
	}()

	// Disk tier: a stored result skips the build entirely (and the
	// worker pool — reading an entry is cheap). Anything unusable is a
	// miss; Invalid is counted separately so invalidations are visible.
	var fp string
	if e.disk != nil || e.remote != nil {
		fp = store.Fingerprint(w.Source, TrainInput(w, opts), w.Test(), opts)
	}
	if e.disk != nil {
		rec, st := e.disk.Get(fp)
		if st == store.Hit {
			run, err := RunFromRecord(rec, w)
			if err == nil {
				e.mu.Lock()
				e.stats.DiskHits++
				e.mu.Unlock()
				e.logf("disk hit %-8s heuristic set %v%s\n", w.Name, opts.Switch, optsSuffix(opts))
				ent.run = run
				return ent.run, nil
			}
			// Decoded but would not reconstitute: as good as corrupt.
			st = store.Invalid
		}
		e.mu.Lock()
		if st == store.Invalid {
			e.stats.DiskInvalid++
		} else {
			e.stats.DiskMisses++
		}
		e.mu.Unlock()
	}

	// Remote tier: with both local tiers cold, ask the fleet's shared
	// store before paying for a build. A hit is written through to the
	// disk tier so this machine serves it locally next time. Any remote
	// failure is absorbed as a fallback — the build below still runs.
	if e.remote != nil {
		rec, out := e.remote.Get(ctx, fp)
		if out == storenet.Hit {
			if run, rerr := RunFromRecord(rec, w); rerr == nil {
				e.mu.Lock()
				e.stats.RemoteHits++
				e.mu.Unlock()
				e.logf("remote hit %-8s heuristic set %v%s\n", w.Name, opts.Switch, optsSuffix(opts))
				if e.disk != nil {
					if perr := e.disk.Put(fp, rec); perr != nil {
						e.logf("store write failed: %v\n", perr)
					}
				}
				ent.run = run
				return ent.run, nil
			}
			// The server validated the entry yet it would not
			// reconstitute here: degrade, don't trust it.
			out = storenet.Fallback
		}
		e.mu.Lock()
		if out == storenet.Miss {
			e.stats.RemoteMisses++
		} else {
			e.stats.RemoteFallbacks++
		}
		e.mu.Unlock()
	}

	select {
	case e.sem <- struct{}{}:
		defer func() { <-e.sem }()
	case <-ctx.Done():
		ent.err = ctx.Err()
		return nil, ent.err
	}
	if err := ctx.Err(); err != nil {
		ent.err = err
		return nil, err
	}
	e.mu.Lock()
	e.stats.Builds++
	e.mu.Unlock()
	e.logf("building %-8s heuristic set %v%s\n", w.Name, opts.Switch, optsSuffix(opts))
	start := time.Now()
	ent.run, ent.err = e.runStaged(w, opts)
	if ent.err == nil {
		elapsed := time.Since(start).Seconds()
		e.mu.Lock()
		if e.stats.BuildSeconds == nil {
			e.stats.BuildSeconds = map[string]float64{}
		}
		e.stats.BuildSeconds[w.Name] += elapsed
		// Fusion counters follow the BuildSeconds discipline: fresh
		// builds only, so cache hits (whose records may predate the
		// fusion field) never skew the summary.
		e.stats.FusedSites += ent.run.Base.Fusion.Fused + ent.run.Reord.Fusion.Fused
		e.stats.FusedOps += ent.run.Base.Fusion.Inside + ent.run.Reord.Fusion.Inside
		e.stats.DecodedOps += ent.run.Base.Fusion.Ops + ent.run.Reord.Fusion.Ops
		e.mu.Unlock()
	}
	if ent.err == nil && (e.disk != nil || e.remote != nil) {
		// A write failure costs only the cache entry, not the run.
		rec := ent.run.Record()
		if e.disk != nil {
			if perr := e.disk.Put(fp, rec); perr != nil {
				e.logf("store write failed: %v\n", perr)
			}
		}
		if e.remote != nil {
			if perr := e.remote.Put(ctx, fp, rec); perr != nil {
				e.mu.Lock()
				e.stats.RemoteFallbacks++
				e.mu.Unlock()
			} else {
				e.mu.Lock()
				e.stats.RemotePuts++
				e.mu.Unlock()
			}
		}
	}
	return ent.run, ent.err
}

// baseline returns the measurement of b.Baseline on test from the
// baseline memo, running it only for the first build of its frontend.
func (e *Engine) baseline(b *pipeline.BuildResult, test []byte) (*sim.Measurement, error) {
	digest := sha256.Sum256(test)
	key := b.FrontendKey + " " + hex.EncodeToString(digest[:])
	m, hit, err := e.baselines.Get(key, func() (*sim.Measurement, error) {
		return sim.Run(b.Baseline, test, nil)
	})
	e.mu.Lock()
	if hit {
		e.stats.BaselinesReused++
	} else {
		e.stats.Sims++
	}
	e.mu.Unlock()
	return m, err
}

// profileTier adapts the engine's disk and remote tiers into the stage
// cache's persistent store for stage-2 training products. Remote hits
// are written through to the disk tier, and fresh products go to both —
// the same discipline as whole-build records. All remote operations are
// best-effort: a failure just means the training run happens here.
type profileTier struct{ e *Engine }

func (p profileTier) GetProfile(src string, train []byte, fo pipeline.FrontendOptions, d pipeline.DetectOptions) (*pipeline.TrainProduct, bool) {
	e := p.e
	if e.disk == nil && e.remote == nil {
		return nil, false
	}
	fp := store.ProfileFingerprint(src, train, fo, d)
	if e.disk != nil {
		if rec, st := e.disk.GetProfile(fp); st == store.Hit {
			e.mu.Lock()
			e.stats.ProfileHits++
			e.mu.Unlock()
			return rec.Train(), true
		}
	}
	if e.remote != nil {
		if rec, out := e.remote.GetProfile(context.Background(), fp); out == storenet.Hit {
			e.mu.Lock()
			e.stats.ProfileHits++
			e.mu.Unlock()
			if e.disk != nil {
				if perr := e.disk.PutProfile(fp, rec); perr != nil {
					e.logf("profile store write failed: %v\n", perr)
				}
			}
			return rec.Train(), true
		}
	}
	return nil, false
}

func (p profileTier) PutProfile(src string, train []byte, fo pipeline.FrontendOptions, d pipeline.DetectOptions, tp *pipeline.TrainProduct) {
	e := p.e
	if e.disk == nil && e.remote == nil {
		return
	}
	fp := store.ProfileFingerprint(src, train, fo, d)
	rec := store.FromTrain(tp)
	stored := false
	if e.disk != nil {
		if perr := e.disk.PutProfile(fp, rec); perr != nil {
			e.logf("profile store write failed: %v\n", perr)
		} else {
			stored = true
		}
	}
	if e.remote != nil {
		if perr := e.remote.PutProfile(context.Background(), fp, rec); perr == nil {
			stored = true
		}
	}
	if stored {
		e.mu.Lock()
		e.stats.ProfilePuts++
		e.mu.Unlock()
	}
}

// MergeProfile folds a just-trained product into the persistent
// merged-profile record for (src, fo, d) and returns the fold — the
// decay-weighted sum of this and every previously accumulated training
// input. The merged fingerprint deliberately ignores the training input
// and the drift choice, so successive runs over different inputs pile
// into one record. Reads prefer the disk tier; the updated record is
// written back to both tiers best-effort. A nil return means no
// persistent tier is attached and the caller should use the solo
// product; reused reports whether prior contributions were folded in.
func (p profileTier) MergeProfile(src string, train []byte, fo pipeline.FrontendOptions, d pipeline.DetectOptions, tp *pipeline.TrainProduct) (*pipeline.TrainProduct, bool) {
	e := p.e
	if e.disk == nil && e.remote == nil {
		return nil, false
	}
	fp := store.MergedFingerprint(src, fo, d)
	var rec *store.MergedRecord
	if e.disk != nil {
		if r, st := e.disk.GetMerged(fp); st == store.Hit {
			rec = r
		}
	}
	if rec == nil && e.remote != nil {
		if r, out := e.remote.GetMerged(context.Background(), fp); out == storenet.Hit {
			rec = r
			if e.disk != nil {
				if perr := e.disk.PutMerged(fp, r); perr != nil {
					e.logf("profile store write failed: %v\n", perr)
				}
			}
		}
	}
	reused := rec != nil && len(rec.Contribs) > 0
	if rec == nil {
		rec = &store.MergedRecord{HalfLife: d.Profile.EffectiveHalfLife()}
	}
	rec.Merge(store.TrainDigest(train), store.FromTrain(tp))
	stored := false
	if e.disk != nil {
		if perr := e.disk.PutMerged(fp, rec); perr != nil {
			e.logf("profile store write failed: %v\n", perr)
		} else {
			stored = true
		}
	}
	if e.remote != nil {
		if perr := e.remote.PutMerged(context.Background(), fp, rec); perr == nil {
			stored = true
		}
	}
	if stored {
		e.mu.Lock()
		e.stats.ProfilePuts++
		e.mu.Unlock()
	}
	return rec.Fold(), reused
}

// optsSuffix labels non-default configurations in progress output.
func optsSuffix(o pipeline.Options) string {
	var parts []string
	if o.CommonSuccessor {
		parts = append(parts, "+common-succ")
	}
	if o.Transform.NoBoundOrder {
		parts = append(parts, "no-bound-order")
	}
	if o.Transform.NoCmpReuse {
		parts = append(parts, "no-cmp-reuse")
	}
	if o.Transform.NoTailDup {
		parts = append(parts, "no-tail-dup")
	}
	if len(parts) == 0 {
		return ""
	}
	s := " ["
	for i, p := range parts {
		if i > 0 {
			s += ","
		}
		s += p
	}
	return s + "]"
}

// gather runs fn for every index of an n-element job list on the engine's
// pool and waits for all of them. The first non-cancellation error wins
// and cancels the remaining jobs; results are for the caller to place by
// index, so aggregation order never depends on completion order.
func (e *Engine) gather(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := fn(ctx, i); err != nil {
				mu.Lock()
				if firstErr == nil && !errors.Is(err, context.Canceled) {
					firstErr = err
					cancel()
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Suite builds and measures every workload under every heuristic set.
func (e *Engine) Suite(ctx context.Context) (*Suite, error) {
	return e.SuiteOf(ctx, workload.All())
}

// SuiteOf builds and measures the given workloads under every heuristic
// set. Results are ordered exactly as ws regardless of which build
// finishes first, so rendered tables are byte-identical across -j values.
func (e *Engine) SuiteOf(ctx context.Context, ws []workload.Workload) (*Suite, error) {
	return e.SuiteOfOpts(ctx, ws, nil)
}

// SuiteOfOpts is SuiteOf with every job's options passed through mod
// (when non-nil), so a cross-cutting configuration — profile sampling or
// merging, say — applies to the whole evaluation matrix without
// enumerating jobs by hand.
func (e *Engine) SuiteOfOpts(ctx context.Context, ws []workload.Workload, mod func(pipeline.Options) pipeline.Options) (*Suite, error) {
	jobs := SuiteJobs(ws)
	if mod != nil {
		for i := range jobs {
			jobs[i].Opts = mod(jobs[i].Opts)
		}
	}
	runs, err := e.RunJobs(ctx, jobs)
	if err != nil {
		return nil, err
	}
	s := &Suite{Runs: map[lower.HeuristicSet][]*ProgramRun{}}
	for si, set := range Sets() {
		s.Runs[set] = runs[si*len(ws) : (si+1)*len(ws)]
	}
	return s, nil
}
