package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	hdindex "github.com/hd-index/hdindex"
)

// runIngest is ingest-sift50k: open-loop writes (inserts of fresh draws,
// every delete_every-th write a delete of a base id) and open-loop
// queries at their own fixed rates, then batch and ladder on the final,
// compacted index.
func runIngest(ctx context.Context, b *bench) error {
	cfg := b.cfg
	writeDur := b.phase(cfg.WriteShare)
	writes := int(cfg.WriteRate * writeDur.Seconds())
	base, qs, pool, err := generate(cfg.Dataset, cfg.N, cfg.Queries, cfg.InsertPool, writes+1, b.seed)
	if err != nil {
		return err
	}
	// The live heap the generated inputs take is the baseline:
	// peak_heap_mb counts only what the run adds on top, mostly the
	// index's own.
	heap := startHeapSampler(20 * time.Millisecond)
	defer heap.Stop()

	dir := filepath.Join(b.work, "index")
	var ix *hdindex.Index
	defer func() {
		if ix != nil {
			ix.Close()
		}
	}()
	err = b.setup(dir, base, hdindex.Options{Seed: b.seed},
		func(built *hdindex.Index) error { ix = built; return nil },
		func() error { return ix.Close() })
	if err != nil {
		return err
	}

	c := newCorpus(base)
	tg := facade{ix}
	victims := rand.New(rand.NewSource(b.seed + 3)).Perm(len(base))

	// Compactions are counted by polling IngestStats: each new one adds
	// its wall time to busy.
	var busyMS float64
	pollStop := make(chan struct{})
	pollDone := make(chan struct{})
	before := ix.IngestStats()
	go func() {
		defer close(pollDone)
		seen := before.Compactions
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-pollStop:
				return
			case <-t.C:
			}
			if st := ix.IngestStats(); st.Compactions > seen {
				busyMS += st.LastCompactionMS * float64(st.Compactions-seen)
				seen = st.Compactions
			}
		}
	}()

	var mu sync.Mutex
	var insertUS []float64
	var inserted [][]float32
	var acked int
	var wg sync.WaitGroup
	var writeLoop loopResult
	wg.Add(1)
	go func() {
		defer wg.Done()
		writeLoop = openLoop(ctx, cfg.WriteRate, writeDur, cfg.WriteWorkers, func(ctx context.Context, i int, due time.Time) error {
			b.attempted.Add(1)
			if (i+1)%cfg.DeleteEvery == 0 {
				id := uint64(victims[i/cfg.DeleteEvery])
				sp := b.tr.open("delete", 0, 0)
				err := ix.Delete(id)
				b.tr.done(sp, nil)
				if err != nil {
					b.fail("delete %d: %v", id, err)
					return err
				}
				c.addDelete(id, time.Now())
				mu.Lock()
				acked++
				mu.Unlock()
				return nil
			}
			v := pool[i-i/cfg.DeleteEvery]
			sp := b.tr.open("insert", 0, 0)
			id, err := ix.Insert(v)
			b.tr.done(sp, nil)
			end := time.Now()
			if err != nil {
				b.fail("insert: %v", err)
				return err
			}
			c.addInsert(id, v)
			mu.Lock()
			insertUS = append(insertUS, float64(end.Sub(due).Nanoseconds())/1e3)
			inserted = append(inserted, v)
			acked++
			mu.Unlock()
			return nil
		})
	}()
	inTurn := func(i int) int { return i % len(qs) }
	recs, late := b.queryPhase(ctx, tg, qs, inTurn, cfg.ReadRate, writeDur, cfg.ReadWorkers)
	wg.Wait()
	close(pollStop)
	<-pollDone
	late = append(late, writeLoop.LateUS...)

	b.latencyMetrics("insert", insertUS)
	b.ingestMetrics(before, ix.IngestStats(), acked, busyMS)
	b.scoreQueries(c, qs, recs)
	if b.tr != nil {
		b.systemMetrics(recs)
	}
	if got, want := ix.Count(), uint64(len(base)+len(inserted)); got != want {
		b.problem("Count() = %d after ingest, want %d (base plus acknowledged inserts)", got, want)
	}
	m, err := readIndexMeta(dir)
	if err != nil {
		return err
	}
	b.set("hilbert.out_of_domain_frac", outOfDomainFrac(inserted, func(int) ([]float32, []float32) { return m.Lo, m.Hi }))

	// Fold the memtable into the trees so the batch, ladder and replay
	// phases run on a quiesced index, not beside a background compaction.
	if err := ix.Compact(ctx); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	liveVecs, liveIDs := c.live()
	scored := qs[:cfg.RecallQueries]
	truth := groundTruth(liveVecs, liveIDs, scored, b.k)
	scan := scanRefUS(liveVecs, qs[:cfg.ScanRefQueries], b.k)
	b.set("vecmath.scan_ref_us", scan)
	b.note("query_p50_us %.0f under writes against an exact linear scan of %.0f us over the %d live vectors (vecmath.scan_ref_us)", b.metrics["query_p50_us"], scan, len(liveVecs))

	recalls := b.batchPhase(ctx, tg, c, scored, truth, b.phase(cfg.BatchShare))
	b.set("recall_at_10", mean(recalls))
	late = append(late, b.ladderPhase(ctx, tg, c, qs, inTurn, b.phase(cfg.LadderShare))...)
	b.set("gen.late_us", quantile(late, 0.99))

	if b.tr != nil {
		rs, err := openReplaySet(dir, 0)
		if err != nil {
			return err
		}
		err = b.replayPhase(ctx, tg, rs, c, qs, inTurn)
		rs.close()
		if err != nil {
			return err
		}
	}
	if err := b.spaceAmp(dir, len(liveVecs), len(base[0])); err != nil {
		return err
	}
	peak, inputs := heap.Stop()
	b.set("peak_heap_mb", peak)
	b.note("peak_heap_mb counts the live heap above the %.1f MiB that the generated inputs held when the run started", inputs)
	return nil
}
