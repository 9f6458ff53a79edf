package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"sync"

	"branchreorder/internal/memo"
)

// StageCache memoizes the staged build pipeline's cacheable stages:
// frontends (stage 1) by (source, Switch, Optimize) and training products
// (stage 2) by (frontend key, training input, CommonSuccessor). Build
// composes the stages through the cache, so a 10-variant ablation grid
// performs exactly one frontend and one training run per (source, set,
// detection config) instead of one per variant.
//
// Lookups are single-flight: concurrent builds that need the same stage
// share one computation, the losers blocking on the winner. Both memos are
// bounded (LRU eviction), so a long-lived cache cannot grow without
// limit; an evicted stage simply recomputes on next use.
//
// Cached products are immutable by contract: FrontendProduct.Prog is
// cloned by every consumer before mutation, and TrainProduct counts are
// only read. A StageCache is safe for concurrent use.
type StageCache struct {
	// Profiles, when non-nil, is a persistent tier behind the in-memory
	// stage-2 map: memory misses probe it before paying for a training
	// run, and fresh training products are written back. Set it before
	// the first Build.
	Profiles ProfileStore

	fronts *memo.Cache[*FrontendProduct]
	trains *memo.Cache[*TrainProduct]

	mu    sync.Mutex // guards stats
	stats StageStats
}

// ProfileStore is a persistent tier for stage-2 training products —
// typically content-addressed records in the bench result store, shared
// via the disk and fleet cache tiers. Implementations must be safe for
// concurrent use. PutProfile is best-effort: failures are logged or
// dropped by the implementation, never surfaced to the build.
type ProfileStore interface {
	GetProfile(src string, train []byte, fo FrontendOptions, d DetectOptions) (*TrainProduct, bool)
	PutProfile(src string, train []byte, fo FrontendOptions, d DetectOptions, tp *TrainProduct)
}

// ProfileMerger is the optional merging extension of a ProfileStore:
// fold a fresh training product into the persistent merged profile for
// (src, fo, d) and return the decayed fold the build should consume.
// The bool reports whether a previously accumulated record contributed
// — the warm-start signal surfaced as ProfileMergeHits. Implementations
// without a persistent tier return (tp, false). Builds use merging when
// d.Profile.Merge is set and the attached ProfileStore implements this
// interface.
type ProfileMerger interface {
	MergeProfile(src string, train []byte, fo FrontendOptions, d DetectOptions, tp *TrainProduct) (*TrainProduct, bool)
}

// StageStats counts a cache's per-stage activity.
type StageStats struct {
	// FrontendRuns counts stage-1 computations; FrontendHits counts
	// lookups served from memory (including joined in-flight runs).
	FrontendRuns int
	FrontendHits int
	// TrainRuns counts training runs actually executed; TrainHits counts
	// lookups served from memory; TrainStoreHits counts training runs
	// avoided by a ProfileStore record.
	TrainRuns      int
	TrainHits      int
	TrainStoreHits int
	// SampledTrainRuns counts the subset of TrainRuns that collected
	// sampled (non-exact) counts; ProfileMergeHits counts training runs
	// whose counts were folded into a pre-existing merged profile record
	// (fleet warm start).
	SampledTrainRuns int
	ProfileMergeHits int
}

// stageLimit bounds each stage memo of a cache: enough for the full
// evaluation matrix (17 workloads x 3 sets) with room to spare, small
// enough that a long-lived engine cannot hoard programs without bound.
const stageLimit = 96

// NewStageCache returns an empty cache holding at most stageLimit entries
// per stage.
func NewStageCache() *StageCache {
	return &StageCache{
		fronts: memo.New[*FrontendProduct](stageLimit),
		trains: memo.New[*TrainProduct](stageLimit),
	}
}

// Stats returns a snapshot of the per-stage counters.
func (c *StageCache) Stats() StageStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// frontendKey derives the stage-1 content address. Sections are
// length-prefixed so concatenations cannot collide.
func frontendKey(src string, fo FrontendOptions) string {
	h := sha256.New()
	keySection(h, "source", []byte(src))
	keySection(h, "frontend", []byte(fmt.Sprintf("switch=%d optimize=%t", fo.Switch, fo.Optimize)))
	return hex.EncodeToString(h.Sum(nil))
}

// trainKey derives the stage-2 content address from the stage-1 key, the
// training input, and the detection configuration (which includes the
// profile configuration: sampled counts are a different product).
func trainKey(frontKey string, train []byte, d DetectOptions) string {
	h := sha256.New()
	keySection(h, "frontend-key", []byte(frontKey))
	keySection(h, "train", train)
	enc, err := json.Marshal(d)
	if err != nil {
		panic(fmt.Sprintf("pipeline: marshal DetectOptions: %v", err))
	}
	keySection(h, "detect", enc)
	return hex.EncodeToString(h.Sum(nil))
}

func keySection(h hash.Hash, name string, data []byte) {
	fmt.Fprintf(h, "%s %d\n", name, len(data))
	h.Write(data)
}

// Frontend returns the stage-1 product for (src, fo), computing it at
// most once per cached lifetime. The returned product is immutable;
// clone its program before mutating.
func (c *StageCache) Frontend(src string, fo FrontendOptions) (*FrontendProduct, error) {
	front, hit, err := c.fronts.Get(frontendKey(src, fo), func() (*FrontendProduct, error) {
		return BuildFrontend(src, fo)
	})
	c.mu.Lock()
	if hit {
		c.stats.FrontendHits++
	} else {
		c.stats.FrontendRuns++
	}
	c.mu.Unlock()
	return front, err
}

// Train returns the stage-2 product for (src, train, fo, d), running the
// training pass at most once per cached lifetime. Memory misses probe
// the ProfileStore (when attached) before computing; fresh products are
// written back to it.
func (c *StageCache) Train(src string, train []byte, fo FrontendOptions, d DetectOptions) (*TrainProduct, error) {
	tp, hit, err := c.trains.Get(trainKey(frontendKey(src, fo), train, d), func() (*TrainProduct, error) {
		return c.train(src, train, fo, d)
	})
	if hit {
		c.mu.Lock()
		c.stats.TrainHits++
		c.mu.Unlock()
	}
	return tp, err
}

// train computes one stage-2 product: persistent tier first, then the
// real training run (written back to the persistent tier on success).
//
// Merge mode inverts the flow: the training run always executes (each
// run is a fresh contribution, so a cached solo profile must not
// short-circuit it) and its counts are folded through the persistent
// merged record, whose decayed fold is what the build consumes.
func (c *StageCache) train(src string, train []byte, fo FrontendOptions, d DetectOptions) (*TrainProduct, error) {
	merge := d.Profile.Merge
	if c.Profiles != nil && !merge {
		if tp, ok := c.Profiles.GetProfile(src, train, fo, d); ok {
			c.mu.Lock()
			c.stats.TrainStoreHits++
			c.mu.Unlock()
			return tp, nil
		}
	}
	front, err := c.Frontend(src, fo)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.TrainRuns++
	if d.Profile.Sampling() {
		c.stats.SampledTrainRuns++
	}
	c.mu.Unlock()
	tp, err := TrainStage(front, train, d)
	if err != nil {
		return nil, err
	}
	if merge {
		if merger, ok := c.Profiles.(ProfileMerger); ok {
			folded, reused := merger.MergeProfile(src, train, fo, d, tp)
			if folded != nil {
				if reused {
					c.mu.Lock()
					c.stats.ProfileMergeHits++
					c.mu.Unlock()
				}
				return folded, nil
			}
		}
		return tp, nil
	}
	if c.Profiles != nil {
		c.Profiles.PutProfile(src, train, fo, d, tp)
	}
	return tp, nil
}

// Build runs the full staged pipeline through the cache: stage 1 and
// stage 2 are shared with every other build of the same source, stage 3
// always runs. The result is byte-identical to an uncached Build, and
// its FrontendKey names the shared frontend product its Baseline is.
func (c *StageCache) Build(src string, train []byte, o Options) (*BuildResult, error) {
	front, err := c.Frontend(src, o.Frontend())
	if err != nil {
		return nil, err
	}
	tp, err := c.Train(src, train, o.Frontend(), o.Detection())
	if err != nil {
		return nil, err
	}
	b, err := FinalizeStages(front, tp, o)
	if err != nil {
		return nil, err
	}
	b.FrontendKey = frontendKey(src, o.Frontend())
	return b, nil
}
