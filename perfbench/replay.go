package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/hd-index/hdindex/internal/core"
	"github.com/hd-index/hdindex/internal/hilbert"
	"github.com/hd-index/hdindex/internal/pager"
	"github.com/hd-index/hdindex/internal/rdbtree"
	"github.com/hd-index/hdindex/internal/topk"
	"github.com/hd-index/hdindex/internal/vecmath"
	"github.com/hd-index/hdindex/internal/vecstore"
)

// replayIndex re-runs the query pipeline of one built (monolithic or
// per-shard) index directory by calling each layer's public functions
// directly, so the benchmark can time the layers the facade's
// PhaseTreeWalk lumps together. It opens its own read-only pagers on
// the index files with the index's own pool size, and reads the meta,
// references, quantiser domain and curve from meta.json.
type replayIndex struct {
	eta     int
	refs    [][]float32
	quants  []*hilbert.Quantizer
	curves  []hilbert.Curve
	trees   []*rdbtree.Tree
	pagers  []*pager.Pager // tree pagers, then the vector-store pager
	vectors *vecstore.Store
}

// indexMeta is the subset of an index's meta.json the replay needs.
type indexMeta struct {
	Params core.Params `json:"params"`
	Nu     int         `json:"nu"`
	Gen    uint64      `json:"gen"`
	Refs   [][]float32 `json:"refs"`
	Lo     []float32   `json:"lo"`
	Hi     []float32   `json:"hi"`
}

func readIndexMeta(dir string) (indexMeta, error) {
	var m indexMeta
	buf, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return m, fmt.Errorf("read index meta: %w", err)
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		return m, fmt.Errorf("parse index meta: %w", err)
	}
	return m, nil
}

func openReplay(dir string) (*replayIndex, error) {
	m, err := readIndexMeta(dir)
	if err != nil {
		return nil, err
	}
	p := m.Params
	r := &replayIndex{eta: m.Nu / p.Tau, refs: m.Refs}
	popts := pager.Options{ReadOnly: true, PoolPages: p.PoolPages, DisableLRU: p.DisableCache}
	for t := 0; t < p.Tau; t++ {
		var c hilbert.Curve
		if p.Curve == core.CurveZOrder {
			c, err = hilbert.NewZOrder(r.eta, p.Omega)
		} else {
			c, err = hilbert.New(r.eta, p.Omega)
		}
		if err != nil {
			r.close()
			return nil, err
		}
		r.curves = append(r.curves, c)
		lo, hi := t*r.eta, (t+1)*r.eta
		r.quants = append(r.quants, hilbert.NewQuantizer(m.Lo[lo:hi], m.Hi[lo:hi], p.Omega))

		name := fmt.Sprintf("tree_%02d.pg", t)
		if m.Gen > 0 {
			name = fmt.Sprintf("tree_%02d.g%d.pg", t, m.Gen)
		}
		pg, err := pager.Open(filepath.Join(dir, name), popts)
		if err != nil {
			r.close()
			return nil, err
		}
		r.pagers = append(r.pagers, pg)
		tree, err := rdbtree.Open(pg)
		if err != nil {
			r.close()
			return nil, err
		}
		r.trees = append(r.trees, tree)
	}
	vp, err := pager.Open(filepath.Join(dir, "vectors.pg"), popts)
	if err != nil {
		r.close()
		return nil, err
	}
	r.pagers = append(r.pagers, vp)
	if r.vectors, err = vecstore.Open(vp); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *replayIndex) close() {
	for _, p := range r.pagers {
		p.Close()
	}
}

// replayStats is one replayed query's work, per layer.
type replayStats struct {
	encode, leafWalk, selectK time.Duration // summed over trees
	fetch, dist               time.Duration // summed over candidates
	exact                     int           // candidates refined
	treePageReads             uint64
}

func (s *replayStats) add(o replayStats) {
	s.encode += o.encode
	s.leafWalk += o.leafWalk
	s.selectK += o.selectK
	s.fetch += o.fetch
	s.dist += o.dist
	s.exact += o.exact
	s.treePageReads += o.treePageReads
}

var errReplayUnsupported = errors.New("replay models the triangular filter only, not the Ptolemaic one")

// query re-runs Algorithm 2 for q with the cascade the facade echoed in
// its stats, skipping ids for which deleted reports true, and returns
// the top k as (id, sqrt distance) pairs. Spans go under parent.
func (r *replayIndex) query(ctx context.Context, q []float32, k int, st *core.QueryStats, deleted func(uint64) bool, tr *tracer, parent, qid int) ([]hit, replayStats, error) {
	var rs replayStats
	if st.Ptolemaic {
		return nil, rs, errReplayUnsupported
	}
	qdist := make([]float64, len(r.refs))
	for i, rv := range r.refs {
		qdist[i] = vecmath.Dist(q, rv)
	}
	coords := make([]uint32, r.eta)
	var key []byte
	var entries []rdbtree.Entry
	var arena []float32
	var tri []topk.Item
	seen := map[uint64]bool{}
	var candidates []uint64
	for t, tree := range r.trees {
		t0 := time.Now()
		r.quants[t].Coords(coords, q[t*r.eta:(t+1)*r.eta])
		key = r.curves[t].Encode(key[:0], coords)
		t1 := time.Now()
		before := r.pagers[t].Stats().Reads
		var err error
		entries, arena, err = tree.SearchNearestInto(ctx, key, st.Alpha, entries, arena)
		if err != nil {
			return nil, rs, err
		}
		t2 := time.Now()
		rs.treePageReads += r.pagers[t].Stats().Reads - before
		// The triangular bound (Eq. 5) is unexported in core; this is
		// the benchmark's own copy, timed but not reported as a layer.
		tri = tri[:0]
		for i, e := range entries {
			tri = append(tri, topk.Item{ID: uint64(i), Dist: triangularLB(qdist, e.RefDists)})
		}
		t3 := time.Now()
		kept := topk.SelectK(tri, st.Gamma)
		t4 := time.Now()
		for _, it := range kept {
			if id := entries[it.ID].ID; !seen[id] {
				seen[id] = true
				candidates = append(candidates, id)
			}
		}
		tr.add("hilbert.encode", parent, qid, t0, t1)
		tr.add("rdbtree.leaf_walk", parent, qid, t1, t2)
		tr.add("bench.triangular_bound", parent, qid, t2, t3)
		tr.add("topk.select", parent, qid, t3, t4)
		rs.encode += t1.Sub(t0)
		rs.leafWalk += t2.Sub(t1)
		rs.selectK += t4.Sub(t3)
	}
	slices.Sort(candidates)

	refine := tr.open("replay.refine", parent, qid)
	best := topk.New(k)
	buf := make([]float32, len(q))
	for _, id := range candidates {
		if deleted(id) {
			continue
		}
		bound := math.Inf(1)
		if b, ok := best.Bound(); ok {
			bound = b
		}
		t0 := time.Now()
		view, ok := r.vectors.GetView(id)
		vec := view.Vec
		if !ok {
			v, err := r.vectors.Get(id, buf)
			if err != nil {
				tr.done(refine, nil)
				return nil, rs, err
			}
			vec = v
		}
		t1 := time.Now()
		d, full := vecmath.DistSqBound(q, vec, bound)
		t2 := time.Now()
		if ok {
			view.Release()
		}
		rs.fetch += t1.Sub(t0)
		rs.dist += t2.Sub(t1)
		if full {
			best.Push(id, d)
		}
		rs.exact++
	}
	tr.done(refine, map[string]accTotal{
		"vecstore.fetch":      {NS: rs.fetch.Nanoseconds(), Calls: int64(rs.exact)},
		"vecmath.refine_dist": {NS: rs.dist.Nanoseconds(), Calls: int64(rs.exact)},
	})
	items := best.Items()
	out := make([]hit, len(items))
	for i, it := range items {
		out[i] = hit{ID: it.ID, Dist: math.Sqrt(it.Dist)}
	}
	return out, rs, nil
}

// triangularLB is Eq. (5): max_i |d(q,R_i) - d(o,R_i)|.
func triangularLB(qdist []float64, refDists []float32) float64 {
	var best float64
	for i, qd := range qdist {
		lb := qd - float64(refDists[i])
		if lb < 0 {
			lb = -lb
		}
		if lb > best {
			best = lb
		}
	}
	return best
}

// replaySet replays a monolithic index (one directory) or a sharded one
// (shard-NN directories, merged the way internal/shard merges them:
// global id = local·N + shard, one (dist, id)-ordered top-k).
type replaySet struct {
	shards []*replayIndex
}

func openReplaySet(dir string, shards int) (*replaySet, error) {
	if shards == 0 {
		r, err := openReplay(dir)
		if err != nil {
			return nil, err
		}
		return &replaySet{shards: []*replayIndex{r}}, nil
	}
	s := &replaySet{}
	for i := 0; i < shards; i++ {
		r, err := openReplay(filepath.Join(dir, fmt.Sprintf("shard-%02d", i)))
		if err != nil {
			s.close()
			return nil, err
		}
		s.shards = append(s.shards, r)
	}
	return s, nil
}

func (s *replaySet) close() {
	for _, r := range s.shards {
		r.close()
	}
}

func (s *replaySet) query(ctx context.Context, q []float32, k int, st *core.QueryStats, deleted func(uint64) bool, tr *tracer, parent, qid int) ([]hit, replayStats, error) {
	if len(s.shards) == 1 {
		return s.shards[0].query(ctx, q, k, st, deleted, tr, parent, qid)
	}
	n := uint64(len(s.shards))
	var total replayStats
	best := topk.New(k)
	for i, r := range s.shards {
		local := func(id uint64) bool { return deleted(id*n + uint64(i)) }
		hits, rs, err := r.query(ctx, q, k, st, local, tr, parent, qid)
		if err != nil {
			return nil, total, err
		}
		total.add(rs)
		for _, h := range hits {
			best.Push(h.ID*n+uint64(i), h.Dist)
		}
	}
	items := best.Items()
	out := make([]hit, len(items))
	for i, it := range items {
		out[i] = hit{ID: it.ID, Dist: it.Dist}
	}
	return out, total, nil
}
