package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"branchreorder/internal/bench/loadgen"
	"branchreorder/internal/bench/store"
	"branchreorder/internal/bench/storenet"
	"branchreorder/internal/bench/storenet/queue"
)

// Spans the store replay adds for its own work: building each request
// the way storenet.Client would (encoding and gzip included), checking
// each answer, and the identity-encoded twin of every GET hit that the
// gzip cost is measured against.
var storeBenchOnlySpans = []string{"replay.request", "check.response", "storenet.get.identity"}

// storeLayerSpans time the handler serving each route.
var storeLayerSpans = []string{"storenet.get", "storenet.put", "storenet.batch", "storenet.queue"}

// storeProbeSpans time store calls the replay makes beside the handler,
// on the entry the handler has just served or stored: the handler runs
// them inside storenet.get and storenet.put, where no span can reach
// without touching the server. They nest — Store.GetRaw verifies, and
// VerifyEntry decodes — and are the benchmark's extra work, so coverage
// leaves them out like storeBenchOnlySpans.
var storeProbeSpans = []string{"store.get_raw", "store.verify", "store.decode", "store.put", "store.encode"}

// replayer sends a store-mixed plan straight into the server's handler,
// in process and one request at a time, so each route's time is the
// handler's alone. Beside each GET and PUT it also times, as probes, the
// store calls the handler makes on that entry.
type replayer struct {
	t       *tracer
	h       http.Handler
	st      *store.Store
	p       *plan
	allocs  bool          // measure each ServeHTTP call's allocation
	alloc   uint64        // bytes allocated inside ServeHTTP calls
	reqs    int           // requests served
	gzipped time.Duration // handler time of GET hits, gzip accepted
	plain   time.Duration // and of the same GETs without gzip
	getHits int
}

// newStoreServer starts an in-process store and work-queue server on a
// fresh pool, seeded with the plan's population.
func newStoreServer(cfg config, p *plan) (http.Handler, *store.Store, func(), error) {
	pool, err := cfg.tmpDir("pool-")
	if err != nil {
		return nil, nil, nil, err
	}
	cleanup := func() { os.RemoveAll(pool) }
	st, err := store.Open(pool)
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	srv := storenet.NewServer(st)
	srv.AttachQueue(queue.New(queue.DefaultTTL, 0))
	h := srv.Handler()
	for i := uint64(0); i < population; i++ {
		if err := st.Put(popFP(p.seed, i), p.recs.pick(i)); err != nil {
			cleanup()
			return nil, nil, nil, err
		}
	}
	return h, st, cleanup, nil
}

// serve sends one request through the handler inside a span named after
// its route and returns the status, the decoded response body and the
// handler's time.
func (r *replayer) serve(span string, id int64, parent int, method, path string, body []byte, gzipOK bool) (int, []byte, time.Duration) {
	var req *http.Request
	r.t.do("replay.request", id, parent, func() {
		data, enc := body, ""
		if len(body) >= 1<<10 {
			var buf bytes.Buffer
			gz := gzip.NewWriter(&buf)
			gz.Write(body)
			gz.Close()
			if buf.Len() < len(body) {
				data, enc = buf.Bytes(), "gzip"
			}
		}
		req = httptest.NewRequest(method, path, bytes.NewReader(data))
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if enc != "" {
			req.Header.Set("Content-Encoding", enc)
		}
		if gzipOK {
			req.Header.Set("Accept-Encoding", "gzip")
		}
	})
	rec := httptest.NewRecorder()
	probe := span == "storenet.get.identity"
	var before, after runtime.MemStats
	if r.allocs && !probe {
		runtime.ReadMemStats(&before)
	}
	h := r.t.begin(span, id, parent)
	start := time.Now()
	r.h.ServeHTTP(rec, req)
	d := time.Since(start)
	r.t.end(h)
	if r.allocs && !probe {
		runtime.ReadMemStats(&after)
		r.alloc += after.TotalAlloc - before.TotalAlloc
	}
	if !probe {
		r.reqs++
	}
	resp := rec.Body.Bytes()
	if rec.Header().Get("Content-Encoding") == "gzip" {
		if zr, err := gzip.NewReader(bytes.NewReader(resp)); err == nil {
			resp, _ = io.ReadAll(zr)
		}
	}
	return rec.Code, resp, d
}

// op replays planned op i and checks the answers as execOp does.
func (r *replayer) op(i int) bool {
	t, p, seed := r.t, r.p, r.p.seed
	id := int64(i)
	root := t.begin("loadgen.op", id, -1)
	defer t.end(root)
	op := p.ops[i]
	ok := false
	check := func(fn func() bool) { t.do("check.response", id, root, func() { ok = fn() }) }
	switch op.Kind {
	case loadgen.OpGet:
		if op.Miss {
			code, _, _ := r.serve("storenet.get", id, root, http.MethodGet, "/v1/entry/"+missFP(seed, p.pass, op.Index), nil, true)
			return code == http.StatusNotFound
		}
		fp := popFP(seed, op.Index)
		code, body, gzipped := r.serve("storenet.get", id, root, http.MethodGet, "/v1/entry/"+fp, nil, true)
		check(func() bool { return code == http.StatusOK && checkEntry(body, fp, p, op.Index) })
		_, _, plain := r.serve("storenet.get.identity", id, root, http.MethodGet, "/v1/entry/"+fp, nil, false)
		r.gzipped += gzipped
		r.plain += plain
		r.getHits++
		var data []byte
		t.do("store.get_raw", id, root, func() { data, _ = r.st.GetRaw(fp) })
		t.do("store.verify", id, root, func() { _, err := store.VerifyEntry(data, fp); ok = ok && err == nil })
		t.do("store.decode", id, root, func() { _, err := store.Decode(data, fp); ok = ok && err == nil })
	case loadgen.OpPut:
		fp, rec := putFP(seed, p.pass, uint64(i), 0), p.putRecord(i, 0)
		var data []byte
		var err error
		t.do("store.encode", id, root, func() { data, err = store.Encode(fp, rec) })
		if err != nil {
			return false
		}
		code, _, _ := r.serve("storenet.put", id, root, http.MethodPut, "/v1/entry/"+fp, data, true)
		ok = code == http.StatusNoContent
		// A fresh key, so the probe writes a new entry as the handler
		// did rather than overwriting it.
		probe := fingerprintOf("probe %s", fp)
		t.do("store.put", id, root, func() { ok = r.st.Put(probe, rec) == nil && ok })
	case loadgen.OpBatchGet:
		req := storenet.BatchGetRequest{}
		idx := map[string]uint64{}
		for j := uint64(0); j < batchSize; j++ {
			fp := popFP(seed, (op.Index+j)%population)
			req.Fingerprints = append(req.Fingerprints, fp)
			idx[fp] = (op.Index + j) % population
		}
		code, body, _ := r.serve("storenet.batch", id, root, http.MethodPost, "/v1/batch/get", mustJSON(req), true)
		check(func() bool {
			var resp storenet.BatchGetResponse
			if code != http.StatusOK || json.Unmarshal(body, &resp) != nil || len(resp.Entries) != batchSize {
				return false
			}
			for _, e := range resp.Entries {
				if !checkEntry(e.Data, e.Fingerprint, p, idx[e.Fingerprint]) {
					return false
				}
			}
			return true
		})
	case loadgen.OpBatchPut:
		var req storenet.BatchPutRequest
		for j := uint64(1); j <= batchSize; j++ {
			fp := putFP(seed, p.pass, uint64(i), j)
			data, err := store.Encode(fp, p.putRecord(i, j))
			if err != nil {
				return false
			}
			req.Entries = append(req.Entries, storenet.BatchEntry{Fingerprint: fp, Data: data})
		}
		code, body, _ := r.serve("storenet.batch", id, root, http.MethodPost, "/v1/batch/put", mustJSON(req), true)
		check(func() bool {
			var resp storenet.BatchPutResponse
			return code == http.StatusOK && json.Unmarshal(body, &resp) == nil && resp.Stored == batchSize
		})
	case loadgen.OpQueue:
		worker := "perfbench-replay"
		enq := storenet.EnqueueRequest{Jobs: []queue.JobSpec{jobSpec(seed, p.pass, uint64(i))}}
		if code, _, _ := r.serve("storenet.queue", id, root, http.MethodPost, "/v1/queue", mustJSON(enq), true); code != http.StatusOK {
			return false
		}
		code, body, _ := r.serve("storenet.queue", id, root, http.MethodPost, "/v1/lease", mustJSON(storenet.LeaseRequest{Worker: worker}), true)
		var lease storenet.LeaseResponse
		if code != http.StatusOK || json.Unmarshal(body, &lease) != nil || lease.Job == nil {
			return false
		}
		hb := storenet.HeartbeatRequest{ID: lease.ID, Token: lease.Token}
		if code, _, _ := r.serve("storenet.queue", id, root, http.MethodPost, "/v1/heartbeat", mustJSON(hb), true); code != http.StatusNoContent {
			return false
		}
		done := storenet.CompleteRequest{ID: lease.ID, Token: lease.Token, Worker: worker}
		code, _, _ = r.serve("storenet.queue", id, root, http.MethodPost, "/v1/complete", mustJSON(done), true)
		ok = code == http.StatusNoContent
	}
	return ok
}

func mustJSON(v interface{}) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %T: %v", v, err))
	}
	return data
}

// replay runs the whole plan against a fresh in-process server.
func replay(cfg config, p *plan, t *tracer, allocs bool, out *outcome) (*replayer, time.Duration, error) {
	h, st, cleanup, err := newStoreServer(cfg, p)
	if err != nil {
		return nil, 0, err
	}
	defer cleanup()
	r := &replayer{t: t, h: h, st: st, p: p, allocs: allocs}
	start := time.Now()
	for i := range p.ops {
		out.check(r.op(i))
	}
	return r, time.Since(start), nil
}

// traceStore is the traced run of store-mixed. It takes its records from
// a cold brbench pass as runStore does. First the open-loop
// generator sends one pass of the plan through storenet.Client to the
// in-process handler over loopback, which gives the client-side counts
// and the generator's lateness. Then the plan is replayed straight into
// the handler: untraced to warm up, traced, untraced again for the
// tracing overhead, and once more to count allocation per request.
func traceStore(cfg config, prov provenance) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	recs, err := realRecords(cfg, out)
	if err != nil {
		return nil, err
	}
	p := newPlan(cfg.seed, 0, passOps(cfg), recs)
	m := out.metrics

	tc, stats := newClientStats()
	h, _, cleanup, err := newStoreServer(cfg, p)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(h)
	sent, _, err := openLoop(ts.URL, p, stats)
	ts.Close()
	cleanup()
	if err != nil {
		return nil, err
	}
	var late []float64
	for _, r := range sent {
		out.check(r.ok)
		late = append(late, ms(r.late))
	}
	m["storenet.client.retries"] = float64(tc.retries(stats))
	m["storenet.client.fallbacks"] = float64(stats.fallbacks.Load())
	m["loadgen.late_p99_ms"] = quantile(late, 0.99)

	plain := func() (time.Duration, error) {
		_, wall, err := replay(cfg, p, nil, false, out)
		return wall, err
	}
	// The first untraced replay warms up; the overhead compares the
	// traced replay with the untraced one after it.
	if _, err := plain(); err != nil {
		return nil, err
	}
	t := newTracer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	traced, wall, err := replay(cfg, p, t, false, out)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	plain2, err := plain()
	if err != nil {
		return nil, err
	}
	self := t.selfTimes()
	for _, name := range append(storeLayerSpans, storeProbeSpans...) {
		m[name+".self_ms"] = ms(self[name])
	}
	m["storenet.gzip.ms_per_resp"] = ms(traced.gzipped-traced.plain) / float64(max(traced.getHits, 1))
	m["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["trace.coverage_ratio"] = coverage(self, wall, storeLayerSpans, append(storeProbeSpans, storeBenchOnlySpans...))
	m["trace.overhead_ratio"] = wall.Seconds() / plain2.Seconds()
	if err := writeSpans(cfg, t, prov); err != nil {
		return nil, err
	}

	r, _, err := replay(cfg, p, nil, true, out)
	if err != nil {
		return nil, err
	}
	m["storenet.alloc_bytes_per_req"] = float64(r.alloc) / float64(max(r.reqs, 1))
	notExercised(m, compileLayerMetrics)
	return out, nil
}
