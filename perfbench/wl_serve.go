package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	hdindex "github.com/hd-index/hdindex"
	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/server"
	"github.com/hd-index/hdindex/internal/telemetry"
)

// runServe is serve-audio100k-4shard: a 4-shard index served by a
// separate hdserve process with default flags, driven over HTTP with at
// most query_workers connections and Zipf-skewed queries.
func runServe(ctx context.Context, b *bench) error {
	cfg := b.cfg
	probeDur := b.phase(cfg.InsertShare)
	probeN := int(cfg.InsertRate*probeDur.Seconds()) + 1
	base, qs, pool, err := generate(cfg.Dataset, cfg.N, cfg.Queries, cfg.InsertPool, probeN, b.seed)
	if err != nil {
		return err
	}

	dir := filepath.Join(b.work, "index")
	var srv *serverProc
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	err = b.setup(dir, base, hdindex.Options{Seed: b.seed, Shards: cfg.Shards},
		func(ix *hdindex.Index) error {
			if err := ix.Close(); err != nil {
				return err
			}
			s, err := startServer(ctx, b.hdserve, dir, filepath.Join(b.work, "hdserve.log"))
			srv = s
			return err
		},
		func() error { return srv.stop() })
	if err != nil {
		return err
	}

	c := newCorpus(base)
	scored := qs[:cfg.RecallQueries]
	truth := groundTruth(base, seqIDs(len(base)), scored, b.k)
	scan := scanRefUS(base, qs[:cfg.ScanRefQueries], b.k)
	b.set("vecmath.scan_ref_us", scan)

	tg := newHTTPTarget(srv.addr, cfg.QueryWorkers)
	defer tg.hc.CloseIdleConnections()
	draws, top1, top10 := zipfDraws(len(qs), cfg.ZipfS, b.seed+2, 1<<16)
	skewed := func(i int) int { return draws[i%len(draws)] }

	recs, late := b.queryPhase(ctx, tg, qs, skewed, cfg.SteadyRate, b.phase(cfg.SteadyShare), cfg.QueryWorkers)
	b.scoreQueries(c, qs, recs)
	distinct := map[int]bool{}
	for _, r := range recs {
		distinct[r.qi] = true
	}
	b.note("steady phase: %d requests over %d distinct queries, %.1f%% repeats; Zipf s=%.2f over %d queries puts %.1f%% of requests on the hottest query and %.1f%% on the ten hottest",
		len(recs), len(distinct), 100*(1-float64(len(distinct))/float64(len(recs))), cfg.ZipfS, len(qs), 100*top1, 100*top10)
	b.note("query_p50_us %.0f against an exact linear scan of %.0f us (vecmath.scan_ref_us)", b.metrics["query_p50_us"], scan)
	if b.tr != nil {
		b.systemMetrics(recs)
		rs, err := openReplaySet(dir, cfg.Shards)
		if err != nil {
			return err
		}
		err = b.replayPhase(ctx, tg, rs, c, qs, skewed)
		rs.close()
		if err != nil {
			return err
		}
	}
	late = append(late, b.ladderPhase(ctx, tg, c, qs, skewed, b.phase(cfg.LadderShare))...)
	// Recall is scored on the batch phase's first pass, which covers
	// every scored query once, not on the skewed traffic.
	b.set("recall_at_10", mean(b.batchPhase(ctx, tg, c, scored, truth, b.phase(cfg.BatchShare))))

	before, err := tg.ingestStats(ctx)
	if err != nil {
		return err
	}
	ids := b.insertProbe(ctx, tg, c, pool, probeDur)
	after, err := tg.ingestStats(ctx)
	if err != nil {
		return err
	}
	b.ingestMetrics(before, after, len(ids), 0)
	metas := make([]indexMeta, cfg.Shards)
	for s := range metas {
		if metas[s], err = readIndexMeta(filepath.Join(dir, fmt.Sprintf("shard-%02d", s))); err != nil {
			return err
		}
	}
	inserted := make([][]float32, len(ids))
	for i, id := range ids {
		inserted[i] = c.vec(id)
	}
	b.set("hilbert.out_of_domain_frac", outOfDomainFrac(inserted, func(i int) ([]float32, []float32) {
		m := metas[ids[i]%uint64(cfg.Shards)]
		return m.Lo, m.Hi
	}))
	b.set("gen.late_us", quantile(late, 0.99))

	count, err := tg.count(ctx)
	if err != nil {
		return err
	}
	if want := uint64(len(base) + len(ids)); count != want {
		b.problem("count = %d after the insert probe, want %d (base plus acknowledged inserts)", count, want)
	}
	if err := b.spaceAmp(dir, int(count), len(base[0])); err != nil {
		return err
	}
	rss, err := peakRSSMiB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	b.set("peak_heap_mb", rss)
	b.note("peak_heap_mb is hdserve's peak resident set")
	return nil
}

// zipfDraws draws n query indices with P(rank r) proportional to r^-s
// over the queries, and returns them with the share of requests the
// hottest query and the ten hottest get. Which query holds which rank is
// a seeded permutation. Unlike math/rand's Zipf it allows s < 1.
func zipfDraws(queries int, s float64, seed int64, n int) (draws []int, top1, top10 float64) {
	cdf := make([]float64, queries)
	var sum float64
	for r := range cdf {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	rng := rand.New(rand.NewSource(seed))
	rank := rng.Perm(queries)
	draws = make([]int, n)
	for i := range draws {
		r := sort.SearchFloat64s(cdf, rng.Float64()*sum)
		draws[i] = rank[min(r, queries-1)]
	}
	return draws, cdf[0] / sum, cdf[min(10, queries)-1] / sum
}

// insertProbe inserts fresh vectors through /insert on an open-loop
// schedule and reports insert_p50_us / insert_tail_us. The probe stays
// below the compaction threshold.
func (b *bench) insertProbe(ctx context.Context, tg *httpTarget, c *corpus, pool [][]float32, dur time.Duration) []uint64 {
	var mu sync.Mutex
	var ids []uint64
	lr := openLoop(ctx, b.cfg.InsertRate, dur, b.cfg.WriteWorkers, func(ctx context.Context, i int, _ time.Time) error {
		b.attempted.Add(1)
		sp := b.tr.open("insert", 0, 0)
		id, err := tg.insert(ctx, pool[i])
		b.tr.done(sp, nil)
		if err != nil {
			b.fail("insert: %v", err)
			return err
		}
		c.addInsert(id, pool[i])
		mu.Lock()
		ids = append(ids, id)
		mu.Unlock()
		return nil
	})
	b.latencyMetrics("insert", lr.LatUS)
	return ids
}

// serverProc is a running hdserve.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
	log    *os.File
}

// startServer launches hdserve on dir with default flags on a free
// loopback port and returns once /healthz answers.
func startServer(ctx context.Context, bin, dir, logPath string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-index", dir, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start hdserve: %w", err)
	}
	s := &serverProc{cmd: cmd, addr: addr, exited: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // the exit is reported through exited
		close(s.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, fmt.Errorf("hdserve exited before it was ready; log in %s", logPath)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("hdserve not ready after 60s")
		}
	}
}

// stop interrupts hdserve (it drains and flushes), kills it if it has
// not exited after 20s, and waits for the exit.
func (s *serverProc) stop() error {
	defer s.log.Close()
	select {
	case <-s.exited:
		return nil
	default:
	}
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		return err
	}
	select {
	case <-s.exited:
		return nil
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill() // the wait below reports nothing either way
		<-s.exited
		return errors.New("hdserve did not stop within 20s of an interrupt")
	}
}

// httpTarget drives hdserve's JSON API.
type httpTarget struct {
	base string
	hc   *http.Client
}

func newHTTPTarget(addr string, conns int) *httpTarget {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &httpTarget{base: "http://" + addr, hc: &http.Client{Transport: tr}}
}

// post sends body as JSON and decodes a 200 reply into out, returning
// the Server-Timing total in microseconds.
func (h *httpTarget) post(ctx context.Context, path string, body, out any) (float64, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return 0, fmt.Errorf("%s: decode reply: %w", path, err)
	}
	return serverTimingUS(resp.Header.Get("Server-Timing"))
}

// serverTimingUS parses "total;dur=<ms>".
func serverTimingUS(h string) (float64, error) {
	_, v, ok := strings.Cut(h, "dur=")
	if !ok {
		return 0, fmt.Errorf("no Server-Timing duration in %q", h)
	}
	ms, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("parse Server-Timing %q: %w", h, err)
	}
	return ms * 1e3, nil
}

func (h *httpTarget) query(ctx context.Context, q []float32, k int, stats bool) (answer, error) {
	var out struct {
		Results []hit                  `json:"results"`
		Stats   *server.QueryStatsJSON `json:"stats"`
	}
	t0 := time.Now()
	handler, err := h.post(ctx, "/search", map[string]any{"query": q, "k": k, "stats": stats}, &out)
	client := float64(time.Since(t0).Nanoseconds()) / 1e3
	if err != nil {
		return answer{}, err
	}
	a := answer{hits: out.Results, handlerUS: handler, clientUS: client}
	if s := out.Stats; s != nil {
		a.stats = &core.QueryStats{
			Candidates: s.Candidates, TreeEntries: s.TreeEntries,
			Alpha: s.Alpha, Beta: s.Beta, Gamma: s.Gamma, Ptolemaic: s.Ptolemaic, Degraded: s.Degraded,
			PageReads: s.PageReads, PageHits: s.PageHits, PageMisses: s.PageMisses,
			ExactDistances: s.ExactDistances, MemtableScanned: s.MemtableScanned,
		}
		for p := range a.stats.Phases {
			a.stats.Phases[p] = int64(s.PhaseUS[telemetry.Phase(p).String()] * 1e3)
		}
	}
	return a, nil
}

func (h *httpTarget) batch(ctx context.Context, qs [][]float32, k int) ([][]hit, error) {
	var out struct {
		Results [][]hit `json:"results"`
	}
	_, err := h.post(ctx, "/searchbatch", map[string]any{"queries": qs, "k": k}, &out)
	if err == nil && len(out.Results) != len(qs) {
		err = fmt.Errorf("/searchbatch answered %d of %d queries", len(out.Results), len(qs))
	}
	return out.Results, err
}

func (h *httpTarget) insert(ctx context.Context, v []float32) (uint64, error) {
	var out struct {
		ID uint64 `json:"id"`
	}
	_, err := h.post(ctx, "/insert", map[string]any{"vector": v}, &out)
	return out.ID, err
}

func (h *httpTarget) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (h *httpTarget) ingestStats(ctx context.Context) (hdindex.IngestStats, error) {
	var out struct {
		Index struct {
			WAL hdindex.IngestStats `json:"wal"`
		} `json:"index"`
	}
	err := h.get(ctx, "/stats", &out)
	return out.Index.WAL, err
}

func (h *httpTarget) count(ctx context.Context) (uint64, error) {
	var out struct {
		Count uint64 `json:"count"`
	}
	err := h.get(ctx, "/healthz", &out)
	return out.Count, err
}
