package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/data"
	"github.com/hd-index/hdindex/internal/telemetry"
	"github.com/hd-index/hdindex/internal/topk"
	"github.com/hd-index/hdindex/internal/vecmath"
)

// answer is one query's reply from either entry point.
type answer struct {
	hits      []hit
	stats     *core.QueryStats // nil unless asked for
	handlerUS float64          // Server-Timing total; 0 in process
	clientUS  float64          // call start to decoded reply
}

// target is the system under test as the workloads drive it: the
// hdindex facade in process, or hdserve over HTTP.
type target interface {
	query(ctx context.Context, q []float32, k int, stats bool) (answer, error)
	batch(ctx context.Context, qs [][]float32, k int) ([][]hit, error)
}

// facade drives an in-process index.
type facade struct{ ix *hdindex.Index }

func (f facade) query(ctx context.Context, q []float32, k int, stats bool) (answer, error) {
	var opts []hdindex.QueryOption
	if stats {
		opts = append(opts, hdindex.WithStats())
	}
	t0 := time.Now()
	resp, err := f.ix.Query(ctx, q, k, opts...)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	if err != nil {
		return answer{}, err
	}
	return answer{hits: toHits(resp.Results), stats: resp.Stats, clientUS: us}, nil
}

func (f facade) batch(ctx context.Context, qs [][]float32, k int) ([][]hit, error) {
	resps, err := f.ix.QueryBatch(ctx, qs, k)
	if err != nil {
		return nil, err
	}
	out := make([][]hit, len(resps))
	for i, r := range resps {
		out[i] = toHits(r.Results)
	}
	return out, nil
}

func toHits(rs []hdindex.Result) []hit {
	out := make([]hit, len(rs))
	for i, r := range rs {
		out[i] = hit{ID: r.ID, Dist: r.Dist}
	}
	return out
}

// corpus is the benchmark's own copy of everything the index holds, by
// global id, plus when each delete was acknowledged.
type corpus struct {
	mu        sync.RWMutex
	base      [][]float32
	inserted  map[uint64][]float32
	deletedAt map[uint64]time.Time
}

func newCorpus(base [][]float32) *corpus {
	return &corpus{base: base, inserted: map[uint64][]float32{}, deletedAt: map[uint64]time.Time{}}
}

func (c *corpus) vec(id uint64) []float32 {
	if id < uint64(len(c.base)) {
		return c.base[id]
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.inserted[id]
}

func (c *corpus) addInsert(id uint64, v []float32) {
	c.mu.Lock()
	c.inserted[id] = v
	c.mu.Unlock()
}

func (c *corpus) addDelete(id uint64, at time.Time) {
	c.mu.Lock()
	c.deletedAt[id] = at
	c.mu.Unlock()
}

// deletedBefore reports whether id's delete was acknowledged before t.
func (c *corpus) deletedBefore(t time.Time) func(uint64) bool {
	return func(id uint64) bool {
		c.mu.RLock()
		defer c.mu.RUnlock()
		at, ok := c.deletedAt[id]
		return ok && at.Before(t)
	}
}

// live returns the vectors not deleted and their global ids.
func (c *corpus) live() ([][]float32, []uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var vecs [][]float32
	var ids []uint64
	for id, v := range c.base {
		if _, gone := c.deletedAt[uint64(id)]; !gone {
			vecs, ids = append(vecs, v), append(ids, uint64(id))
		}
	}
	for id := uint64(len(c.base)); ; id++ {
		v, ok := c.inserted[id]
		if !ok {
			break
		}
		if _, gone := c.deletedAt[id]; !gone {
			vecs, ids = append(vecs, v), append(ids, id)
		}
	}
	return vecs, ids
}

// generate draws the workload's vectors from internal/data: n base
// vectors, the held-out queries, and a pool of fresh draws from the same
// generator for inserts. The pool's size is a constant of the workload,
// not derived from --seconds, so that runs of any length build the same
// index; need is how many fresh vectors this run's writes use. The same
// seed gives the same inputs.
func generate(dataset string, n, queries, pool, need int, seed int64) (base, qs, fresh [][]float32, err error) {
	if need > pool {
		return nil, nil, nil, fmt.Errorf("this run's writes need %d fresh vectors, but the insert pool holds %d: run fewer seconds", need, pool)
	}
	total := n + queries + pool
	var ds *data.Dataset
	switch dataset {
	case "sift":
		ds = data.SIFTLike(total, seed)
	case "audio":
		ds = data.AudioLike(total, seed)
	default:
		return nil, nil, nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	qs = ds.HoldOutQueries(queries, seed+1)
	return ds.Vectors[:n], qs, ds.Vectors[n:], nil
}

// groundTruth maps data.GroundTruth's positions in vecs back to ids.
func groundTruth(vecs [][]float32, ids []uint64, qs [][]float32, k int) [][]uint64 {
	pos, _ := data.GroundTruth(vecs, qs, k)
	out := make([][]uint64, len(pos))
	for i, row := range pos {
		out[i] = make([]uint64, len(row))
		for j, p := range row {
			out[i][j] = ids[p]
		}
	}
	return out
}

// scanRefUS times an exact single-threaded linear scan (the brute-force
// baseline every index must beat) for each of qs and returns the median
// microseconds per query.
func scanRefUS(vecs [][]float32, qs [][]float32, k int) float64 {
	var us []float64
	for _, q := range qs {
		t0 := time.Now()
		l := topk.New(k)
		for id, v := range vecs {
			l.Push(uint64(id), vecmath.DistSq(q, v))
		}
		_ = l.Items()
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us)
}

// setup builds the workload's index setup_builds times. Each round
// removes dir, builds with opts, runs ready (which takes over the
// built handle, e.g. to start hdserve on it) and is timed as a whole;
// every round but the last is undone by teardown. It reports setup_s
// and each build phase as medians over the rounds, then fsyncs the
// index files so that their write-back does not land in the measured
// phases.
func (b *bench) setup(dir string, base [][]float32, opts hdindex.Options, ready func(*hdindex.Index) error, teardown func() error) error {
	var secs []float64
	var stats []hdindex.BuildStats
	for i := 0; i < b.cfg.SetupBuilds; i++ {
		if i > 0 {
			if err := teardown(); err != nil {
				return err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		t0 := time.Now()
		ix, err := hdindex.Build(dir, base, opts)
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		stats = append(stats, *ix.BuildStats())
		if err := ready(ix); err != nil {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	b.set("setup_s", median(secs))
	b.buildMetrics(stats)
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}

// buildMetrics reports the median of each build phase over the set-up
// builds.
func (b *bench) buildMetrics(stats []hdindex.BuildStats) {
	pick := func(f func(hdindex.BuildStats) float64) float64 {
		var xs []float64
		for _, s := range stats {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	b.set("build.refdists_ms", pick(func(s hdindex.BuildStats) float64 { return s.RefDistsMS }))
	b.set("build.encode_ms", pick(func(s hdindex.BuildStats) float64 { return s.EncodeMS }))
	b.set("build.sort_ms", pick(func(s hdindex.BuildStats) float64 { return s.SortMS }))
	b.set("build.bulkload_ms", pick(func(s hdindex.BuildStats) float64 { return s.BulkLoadMS }))
	b.set("build.peak_heap_mb", pick(func(s hdindex.BuildStats) float64 { return float64(s.PeakHeapBytes) / (1 << 20) }))
}

// check validates one answer and counts it; recall is returned for
// callers that score it (NaN without truth).
func (b *bench) check(c *corpus, q []float32, hits []hit, started time.Time, truth []uint64, what string) float64 {
	if err := validate(q, hits, b.k, c.vec, c.deletedBefore(started)); err != nil {
		b.fail("%s: %v", what, err)
		return math.NaN()
	}
	if truth == nil {
		return math.NaN()
	}
	return recallAt(hits, truth)
}

// querySeq is the order queries are issued in: held-out queries in turn,
// or Zipf-skewed draws from them.
type querySeq func(i int) int

// latencyMetrics sets query_p50_us and query_tail_us from samples in
// microseconds.
func (b *bench) latencyMetrics(prefix string, us []float64) {
	b.set(prefix+"_p50_us", median(us))
	t, label := tail(us)
	b.set(prefix+"_tail_us", t)
	b.note("%s_tail_us is %s of %d samples", prefix, label, len(us))
}

// batchPhase runs QueryBatch (or /searchbatch) over consecutive slices
// of the queries for dur and reports batch_qps as the median over calls
// of queries answered per second of the call, so that one call caught in
// a stall of the host does not set the figure. It checks every answer
// and returns the recall of the first pass over the queries.
func (b *bench) batchPhase(ctx context.Context, tg target, c *corpus, qs [][]float32, truth [][]uint64, dur time.Duration) []float64 {
	bs := b.cfg.BatchSize
	var qps, recalls []float64
	end := time.Now().Add(dur)
	// The first pass covers every query once, however long it takes, so
	// that recall is scored on the same set in every run.
	firstPass := (len(qs) + bs - 1) / bs
	for j := 0; (j < firstPass || time.Now().Before(end)) && ctx.Err() == nil; j++ {
		batch := make([][]float32, bs)
		idx := make([]int, bs)
		for i := range batch {
			idx[i] = (j*bs + i) % len(qs)
			batch[i] = qs[idx[i]]
		}
		sp := b.tr.open("batch", 0, 0)
		t0 := time.Now()
		res, err := tg.batch(ctx, batch, b.k)
		secs := time.Since(t0).Seconds()
		b.tr.done(sp, nil)
		b.attempted.Add(int64(bs))
		if err != nil {
			b.failed.Add(int64(bs))
			b.problem("batch: %v", err)
			continue
		}
		qps = append(qps, float64(bs)/secs)
		for i, hits := range res {
			var tr []uint64
			if truth != nil && j*bs+i < len(qs) {
				tr = truth[idx[i]]
			}
			if r := b.check(c, batch[i], hits, t0, tr, "batch"); !math.IsNaN(r) {
				recalls = append(recalls, r)
			}
		}
	}
	b.set("batch_qps", median(qps))
	return recalls
}

// ladderPhase runs the open-loop rate ladder and reports
// max_qps_under_slo and the generator's lateness.
func (b *bench) ladderPhase(ctx context.Context, tg target, c *corpus, qs [][]float32, seq querySeq, dur time.Duration) []float64 {
	// Every rate gets an equal slice of the phase, so the ladder never
	// outlasts its share however far a fast program climbs.
	rates := b.cfg.LadderRates
	rungDur := dur / time.Duration(len(rates))
	rungs, best := runLadder(ctx, rates, rungDur, b.cfg.QueryWorkers, b.cfg.LadderLimitMS, func(ctx context.Context, i int, _ time.Time) error {
		q := qs[seq(i)]
		b.attempted.Add(1)
		sp := b.tr.open("ladder.query", 0, 0)
		t0 := time.Now()
		a, err := tg.query(ctx, q, b.k, false)
		b.tr.done(sp, nil)
		if err != nil {
			b.fail("ladder query: %v", err)
			return err
		}
		b.check(c, q, a.hits, t0, nil, "ladder query")
		return nil
	})
	var late []float64
	for _, r := range rungs {
		b.note("ladder rung %.1f/s: achieved %.2f/s, p90 %.1f ms, backlog %d, pass %v",
			r.loop.Rate, r.loop.Achieved, r.p90MS, r.loop.Backlog, r.pass)
		late = append(late, r.loop.LateUS...)
	}
	if top := rungs[len(rungs)-1]; len(rungs) == len(rates) && top.pass {
		b.note("ladder hit its ceiling: every rung passed, so max_qps_under_slo (%.2f/s) is a lower bound", best)
	}
	b.set("max_qps_under_slo", best)
	return late
}

// outOfDomainFrac is the share of inserted coordinates outside the
// quantiser domain [lo, hi] of the (shard) index they landed in.
func outOfDomainFrac(vecs [][]float32, domain func(i int) (lo, hi []float32)) float64 {
	var out, total int
	for i, v := range vecs {
		lo, hi := domain(i)
		for d, x := range v {
			if x < lo[d] || x > hi[d] {
				out++
			}
		}
		total += len(v)
	}
	if total == 0 {
		return 0
	}
	return float64(out) / float64(total)
}

// phaseUS converts a per-phase nanosecond array to microseconds.
func phaseUS(p telemetry.PhaseNS, ph telemetry.Phase) float64 { return float64(p[ph]) / 1e3 }

// replayPhase runs the traced queries one at a time: the system answers
// each with stats, then the layer replay re-runs it on the same index
// files, and the two answers must be bit-identical. It sets the query
// pipeline's per-layer metrics.
func (b *bench) replayPhase(ctx context.Context, tg target, rs *replaySet, c *corpus, qs [][]float32, seq querySeq) error {
	var treeWalk, refine, encode, walk, sel, filter, fetch, dist []float64
	var entries, cands, exact, misses, hits, pageReads []float64
	matched := 0
	n := b.cfg.TracedQueries
	for i := 0; i < n && ctx.Err() == nil; i++ {
		q := qs[seq(i)]
		qid := i + 1
		b.attempted.Add(1)
		sp := b.tr.open("system.query", 0, qid)
		t0 := time.Now()
		a, err := tg.query(ctx, q, b.k, true)
		b.tr.done(sp, nil)
		if err != nil {
			b.fail("traced query: %v", err)
			continue
		}
		b.check(c, q, a.hits, t0, nil, "traced query")
		rsp := b.tr.open("replay", 0, qid)
		got, st, err := rs.query(ctx, q, b.k, a.stats, c.deletedBefore(time.Now()), b.tr, rsp, qid)
		b.tr.done(rsp, nil)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if !sameHits(got, a.hits) {
			b.problem("replay of traced query %d differs from the system's answer: %v vs %v", i, got, a.hits)
		} else {
			matched++
		}
		tw := phaseUS(a.stats.Phases, telemetry.PhaseTreeWalk)
		treeWalk = append(treeWalk, tw)
		refine = append(refine, phaseUS(a.stats.Phases, telemetry.PhaseRefine))
		us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
		encode = append(encode, us(st.encode))
		walk = append(walk, us(st.leafWalk))
		sel = append(sel, us(st.selectK))
		filter = append(filter, tw-us(st.encode)-us(st.leafWalk)-us(st.selectK))
		fetch = append(fetch, us(st.fetch))
		dist = append(dist, us(st.dist))
		entries = append(entries, float64(a.stats.TreeEntries))
		cands = append(cands, float64(a.stats.Candidates))
		exact = append(exact, float64(a.stats.ExactDistances))
		misses = append(misses, float64(a.stats.PageMisses))
		hits = append(hits, float64(a.stats.PageHits))
		pageReads = append(pageReads, float64(st.treePageReads))
	}
	b.note("layer replay matched the system bit-for-bit on %d of %d traced queries", matched, n)
	b.set("core.tree_walk_us", median(treeWalk))
	b.set("core.refine_us", median(refine))
	b.set("hilbert.encode_us", median(encode))
	b.set("rdbtree.leaf_walk_us", median(walk))
	b.set("topk.select_us", median(sel))
	b.set("core.filter_us", median(filter))
	b.set("vecstore.fetch_us", median(fetch))
	b.set("vecmath.refine_dist_us", median(dist))
	b.set("core.tree_entries_per_query", mean(entries))
	b.set("core.candidates_per_query", mean(cands))
	b.set("core.filter_keep_ratio", mean(cands)/mean(entries))
	b.set("core.exact_distances_per_query", mean(exact))
	b.set("core.useful_refine_ratio", float64(b.k)/mean(exact))
	b.set("pager.misses_per_query", mean(misses))
	b.set("pager.hit_ratio", mean(hits)/(mean(hits)+mean(misses)))
	b.set("rdbtree.page_reads_per_query", mean(pageReads))
	b.set("trace.replay_matched_frac", float64(matched)/float64(n))
	return nil
}

// qrec is one query of a workload's main query phase, checked after the
// phase ends (an answer may name an insert whose ack is still in
// flight while the query runs).
type qrec struct {
	qi     int
	start  time.Time
	a      answer
	us     float64 // latency from the due time
	traced bool
}

// queryPhase runs the workload's main query load: an open loop at rate
// for dur on workers workers. In a traced run every second query is traced, so the
// difference between the traced and untraced queries, which ran under
// the same conditions, is the tracing overhead.
func (b *bench) queryPhase(ctx context.Context, tg target, qs [][]float32, seq querySeq, rate float64, dur time.Duration, workers int) ([]qrec, []float64) {
	var mu sync.Mutex
	var recs []qrec
	lr := openLoop(ctx, rate, dur, workers, func(ctx context.Context, i int, due time.Time) error {
		qi := seq(i)
		traced := b.tr != nil && i%2 == 1
		b.attempted.Add(1)
		sp := 0
		if traced {
			sp = b.tr.open("system.query", 0, -(i + 1))
		}
		start := time.Now()
		a, err := tg.query(ctx, qs[qi], b.k, traced)
		end := time.Now()
		b.tr.done(sp, nil)
		if err != nil {
			b.fail("query: %v", err)
			return err
		}
		mu.Lock()
		recs = append(recs, qrec{qi: qi, start: start, a: a, us: float64(end.Sub(due).Nanoseconds()) / 1e3, traced: traced})
		mu.Unlock()
		return nil
	})
	return recs, lr.LateUS
}

// systemMetrics sets the per-layer figures read from the system's own
// stats on the traced queries of the main query phase, and the tracing
// overhead against the untraced ones.
func (b *bench) systemMetrics(recs []qrec) {
	var untraced, traced, lock, memUS, memN, handler, transport, ratio []float64
	for _, r := range recs {
		if !r.traced {
			untraced = append(untraced, r.a.clientUS)
			continue
		}
		traced = append(traced, r.a.clientUS)
		st := r.a.stats
		work := float64(st.Phases.Total()) / 1e3
		memUS = append(memUS, phaseUS(st.Phases, telemetry.PhaseMemtableScan))
		memN = append(memN, float64(st.MemtableScanned))
		wall := r.a.clientUS
		if r.a.handlerUS > 0 {
			handler = append(handler, r.a.handlerUS)
			transport = append(transport, r.a.clientUS-r.a.handlerUS)
			wall = r.a.handlerUS
		} else {
			lock = append(lock, r.a.clientUS-work)
		}
		ratio = append(ratio, work/wall)
	}
	b.set("trace.overhead_frac", median(traced)/median(untraced)-1)
	b.set("core.memtable_scan_us", median(memUS))
	b.set("core.memtable_scanned_per_query", mean(memN))
	b.set("shard.work_to_wall_ratio", median(ratio))
	// In process there is no server layer; over HTTP the phases are
	// summed across concurrently running shards, so wall minus phases is
	// no lock wait. Each reports 0 where it does not apply.
	b.set("server.handler_us", 0)
	b.set("server.transport_us", 0)
	b.set("core.lock_wait_us", 0)
	if len(handler) > 0 {
		b.set("server.handler_us", median(handler))
		b.set("server.transport_us", median(transport))
	}
	if len(lock) > 0 {
		b.set("core.lock_wait_us", median(lock))
	}
}

// scoreQueries checks every answer of the main query phase and reports
// query latency.
func (b *bench) scoreQueries(c *corpus, qs [][]float32, recs []qrec) {
	var us []float64
	for _, r := range recs {
		us = append(us, r.us)
		b.check(c, qs[r.qi], r.a.hits, r.start, nil, "query")
	}
	b.latencyMetrics("query", us)
}

func seqIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	return ids
}

// ingestMetrics sets the write-path figures from two IngestStats
// snapshots around a write phase of writes acknowledged writes.
// busyMS is the compaction time the caller observed while polling.
func (b *bench) ingestMetrics(before, after hdindex.IngestStats, writes int, busyMS float64) {
	b.set("wal.syncs_per_write", float64(after.WALSyncs-before.WALSyncs)/float64(max(writes, 1)))
	b.set("compactor.runs", float64(after.Compactions-before.Compactions))
	b.set("compactor.busy_ms", busyMS)
}

// spaceAmp sets space_amp: bytes on disk over the raw bytes of the live
// vectors.
func (b *bench) spaceAmp(dir string, live, dim int) error {
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	b.set("space_amp", float64(size)/float64(live*dim*4))
	return nil
}
