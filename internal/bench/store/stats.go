package store

// TierStats counts one engine's cache activity across its tiers
// (in-memory memo → disk store → network store). It lives in this
// package, not bench, because shard export files carry it: a merged
// run's summary can then account for every shard's cache behaviour,
// not just its own. Zero counters for a tier just mean the tier was
// not attached.
type TierStats struct {
	// Builds is the number of build+measure jobs actually executed.
	Builds int `json:"builds"`
	// Hits is the number of lookups served from the in-memory memo
	// (including callers that joined an in-flight build).
	Hits int `json:"memoHits"`
	// Seeded is the number of pre-measured runs installed into the memo
	// from outside — merged shard exports or a farm collect — rather
	// than built or fetched by this engine.
	Seeded int `json:"seeded,omitempty"`

	// Disk-tier counters; all stay zero when no store is attached.
	DiskHits    int `json:"diskHits,omitempty"`    // jobs served from the disk store without building
	DiskMisses  int `json:"diskMisses,omitempty"`  // jobs with no usable entry on disk
	DiskInvalid int `json:"diskInvalid,omitempty"` // corrupt, truncated or schema-mismatched entries, treated as misses

	// Remote-tier counters; all stay zero when no network store is
	// attached.
	RemoteHits      int `json:"remoteHits,omitempty"`      // jobs served from the network store
	RemoteMisses    int `json:"remoteMisses,omitempty"`    // reachable server, no entry
	RemoteFallbacks int `json:"remoteFallbacks,omitempty"` // remote failures absorbed by the local tiers
	RemotePuts      int `json:"remotePuts,omitempty"`      // fresh results uploaded to the network store

	// Staged-build counters: the engine composes every fresh build from
	// cached stages (frontend → detect+train → finalize), so these count
	// how often the expensive stages actually ran versus were reused.
	// All stay zero for runs served entirely from the memo/disk/remote
	// tiers.
	FrontendRuns int `json:"frontendRuns,omitempty"` // stage-1 frontends actually compiled
	FrontendHits int `json:"frontendHits,omitempty"` // stage-1 lookups served from the stage cache
	TrainRuns    int `json:"trainRuns,omitempty"`    // stage-2 training runs actually executed
	TrainHits    int `json:"trainHits,omitempty"`    // stage-2 lookups served from the stage cache
	ProfileHits  int `json:"profileHits,omitempty"`  // training runs avoided by a stored profile record (disk or fleet)
	ProfilePuts  int `json:"profilePuts,omitempty"`  // fresh profile records persisted for later runs
	// Profile-subsystem counters: training runs that collected sampled
	// (non-exact) counts, and training runs whose counts were folded into
	// a pre-existing merged profile record (fleet warm start).
	SampledTrainRuns int `json:"sampledTrainRuns,omitempty"`
	ProfileMergeHits int `json:"profileMergeHits,omitempty"`

	// Superinstruction counters, aggregated over freshly built
	// executables only (like BuildSeconds; cache hits add nothing):
	// how many fused superinstruction sites their decoded code holds,
	// how many original ops those sites absorb, and how many dispatch
	// slots it has pre-fusion, so a summary can report static coverage
	// (FusedOps/DecodedOps).
	FusedSites int `json:"fusedSites,omitempty"`
	FusedOps   int `json:"fusedOps,omitempty"`
	DecodedOps int `json:"decodedOps,omitempty"`

	// Measurement counters: simulations actually executed by fresh
	// builds, and baseline measurements a build took from the engine's
	// memo instead of simulating its baseline again.
	Sims            int `json:"sims,omitempty"`
	BaselinesReused int `json:"baselinesReused,omitempty"`

	// BuildSeconds is the wall-clock cost of the jobs behind Builds,
	// keyed by workload and summed over every configuration built for
	// it. Cache hits add nothing, so a BENCH trajectory over exports
	// tracks engine speed separately from cache effectiveness.
	BuildSeconds map[string]float64 `json:"buildSeconds,omitempty"`
}

// Add accumulates o into s, counter by counter — how a merge totals the
// cache activity of every exported shard.
func (s *TierStats) Add(o TierStats) {
	s.Builds += o.Builds
	s.Hits += o.Hits
	s.Seeded += o.Seeded
	s.DiskHits += o.DiskHits
	s.DiskMisses += o.DiskMisses
	s.DiskInvalid += o.DiskInvalid
	s.RemoteHits += o.RemoteHits
	s.RemoteMisses += o.RemoteMisses
	s.RemoteFallbacks += o.RemoteFallbacks
	s.RemotePuts += o.RemotePuts
	s.FrontendRuns += o.FrontendRuns
	s.FrontendHits += o.FrontendHits
	s.TrainRuns += o.TrainRuns
	s.TrainHits += o.TrainHits
	s.ProfileHits += o.ProfileHits
	s.ProfilePuts += o.ProfilePuts
	s.SampledTrainRuns += o.SampledTrainRuns
	s.ProfileMergeHits += o.ProfileMergeHits
	s.FusedSites += o.FusedSites
	s.FusedOps += o.FusedOps
	s.DecodedOps += o.DecodedOps
	s.Sims += o.Sims
	s.BaselinesReused += o.BaselinesReused
	for w, sec := range o.BuildSeconds {
		if s.BuildSeconds == nil {
			s.BuildSeconds = make(map[string]float64, len(o.BuildSeconds))
		}
		s.BuildSeconds[w] += sec
	}
}
