package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"ndpcr/internal/cluster"
	"ndpcr/internal/cluster/elastic"
	"ndpcr/internal/compress"
	"ndpcr/internal/iod"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/shardstore"
)

// elasticRank is a PartitionedRank whose state is a contiguous run of
// shards from a shared global array. Its snapshot is the elastic frame of
// exactly those shards, so the restore planner can re-cut the global array
// onto any target rank count.
type elasticRank struct {
	shards [][]byte
}

func (r *elasticRank) Partitioned() {}

func (r *elasticRank) Snapshot() ([]byte, error) { return elastic.Encode(r.shards), nil }

func (r *elasticRank) Restore(data []byte) error {
	shards, err := elastic.Decode(data)
	if err != nil {
		return err
	}
	r.shards = shards
	return nil
}

// elasticShard is the canonical content of global shard g at step s: a
// parseable header plus ballast, so merged state comparisons are
// byte-exact and corruption anywhere in a shard is visible.
func elasticShard(g, s int) []byte {
	return append([]byte(fmt.Sprintf("shard%03d@step%03d|", g, s)),
		bytes.Repeat([]byte{byte(g*31 + s)}, 48)...)
}

// elasticMerged is the merged application state at step s: every global
// shard in order, which is exactly what elastic.MergedBytes reconstructs
// from any topology's snapshot frames.
func elasticMerged(total, s int) []byte {
	var out []byte
	for g := 0; g < total; g++ {
		out = append(out, elasticShard(g, s)...)
	}
	return out
}

// runElastic demonstrates elastic N→M restart over a live shard tier: a
// job checkpointed at N=8 ranks across 3 replicated iod backends is torn
// down and restarted at M=4 and M=12, each time recovering the merged
// application state byte-identically through the restore planner. Finally
// the newest restart line is made unreadable (valid metadata, garbage
// payload) and an M=4 restart must fall back to the older line rather
// than abort.
func runElastic() error {
	const (
		sourceRanks   = 8
		backends      = 3
		shardsPerRank = 6
		total         = sourceRanks * shardsPerRank
	)
	steps := 2

	fmt.Printf("elastic: N=%d ranks, %d shards, over %d iod backends R=2; restart at M=4 and M=12\n\n",
		sourceRanks, total, backends)

	servers := make([]*iod.Server, 0, backends)
	addrs := make([]string, backends)
	for i := range addrs {
		srv, err := iod.NewServer(iostore.New(nvm.Pacer{}))
		if err != nil {
			return err
		}
		go srv.ListenAndServe("127.0.0.1:0")
		for srv.Addr() == nil {
			time.Sleep(time.Millisecond)
		}
		servers = append(servers, srv)
		addrs[i] = srv.Addr().String()
		fmt.Printf("  iod-%d listening on %s\n", i, addrs[i])
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()

	store, err := shardstore.Dial(addrs, 2, shardstore.Config{
		Replicas:    2,
		CallTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer store.Close()
	reg := metrics.NewRegistry()
	store.Instrument(reg)

	gz, _ := compress.Lookup("gzip", 1)
	newCluster := func(m int) (*cluster.Cluster, []*elasticRank, error) {
		nodes := make([]*node.Node, m)
		apps := make([]*elasticRank, m)
		rankIfaces := make([]cluster.Rank, m)
		for i := 0; i < m; i++ {
			apps[i] = &elasticRank{}
			rankIfaces[i] = apps[i]
			var err error
			nodes[i], err = node.New(node.Config{
				Job: "elastic", Rank: i, Store: store,
				Codec: gz, BlockSize: 1 << 14,
			})
			if err != nil {
				return nil, nil, err
			}
		}
		c, err := cluster.New("elastic", store, nodes, rankIfaces)
		if err != nil {
			return nil, nil, err
		}
		return c, apps, nil
	}

	// Phase 1: run the job at N=8 and commit one restart line per step.
	src, srcApps, err := newCluster(sourceRanks)
	if err != nil {
		return err
	}
	var lines []uint64
	for s := 1; s <= steps; s++ {
		for i, a := range srcApps {
			lo, hi := elastic.SplitRange(total, sourceRanks, i)
			a.shards = a.shards[:0]
			for g := lo; g < hi; g++ {
				a.shards = append(a.shards, elasticShard(g, s))
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		id, err := src.Checkpoint(ctx, s, ndp.LevelStore)
		cancel()
		if err != nil {
			src.Close()
			return err
		}
		lines = append(lines, id)
		fmt.Printf("  step %d: checkpoint %d committed across %d ranks\n", s, id, sourceRanks)
	}
	src.Close()
	newest := lines[len(lines)-1]

	// Phase 2: restart the dead job at M=4 and M=12. Every reshape must
	// reproduce the newest step's merged state byte-identically.
	restart := func(m int, wantLine uint64, wantStep int, expectFallback bool) error {
		c, apps, err := newCluster(m)
		if err != nil {
			return err
		}
		defer c.Close()
		out, err := c.Recover(context.Background(), cluster.RecoverOptions{SourceRanks: sourceRanks})
		if err != nil {
			return fmt.Errorf("recover %d->%d: %w", sourceRanks, m, err)
		}
		if out.Plan == nil {
			return fmt.Errorf("recover %d->%d returned no restore plan", sourceRanks, m)
		}
		if out.ID != wantLine {
			return fmt.Errorf("recover %d->%d restored line %d, want %d", sourceRanks, m, out.ID, wantLine)
		}
		var merged []byte
		populated := 0
		for _, a := range apps {
			if len(a.shards) > 0 {
				populated++
			}
			for _, sh := range a.shards {
				merged = append(merged, sh...)
			}
		}
		if !bytes.Equal(merged, elasticMerged(total, wantStep)) {
			return fmt.Errorf("recover %d->%d: merged state differs from step %d's checkpointed state",
				sourceRanks, m, wantStep)
		}
		if expectFallback && len(out.FailedLines) == 0 {
			return fmt.Errorf("recover %d->%d succeeded without the expected restart-line fallback", sourceRanks, m)
		}
		fmt.Printf("  restart at M=%-2d: line %d (step %d) restored, %d/%d targets populated, "+
			"%d shards merged byte-identical, %d lines abandoned\n",
			m, out.ID, out.Step, populated, m, out.Plan.TotalShards, len(out.FailedLines))

		if expectFallback {
			// The resynced ID space must append after all source history —
			// including the poisoned line we fell back over.
			id, err := c.Checkpoint(context.Background(), out.Step+1, ndp.LevelErasure)
			if err != nil {
				return fmt.Errorf("post-restart checkpoint: %w", err)
			}
			fmt.Printf("  post-restart checkpoint committed as line %d (source history ended at %d)\n",
				id, newest)
			if id <= newest {
				return fmt.Errorf("post-restart checkpoint %d would overwrite source history ending at %d", id, newest)
			}
		}
		return nil
	}
	if err := restart(4, newest, steps, false); err != nil {
		return err
	}
	if err := restart(12, newest, steps, false); err != nil {
		return err
	}

	// Phase 3: poison the newest line on rank 0 past the metadata level —
	// planning still succeeds, the payload fetch does not — and restart
	// again. Recovery must fall back to the older line.
	fmt.Printf("\n  >>> poisoning line %d on rank 0 (plausible metadata, unreadable payload)\n", newest)
	err = store.Put(context.Background(), iostore.Object{
		Key:      iostore.Key{Job: "elastic", Rank: 0, ID: newest},
		OrigSize: 9,
		Blocks:   [][]byte{[]byte("not-frame")},
		Meta: map[string]string{
			"job": "elastic", "rank": "0", "step": fmt.Sprint(steps),
			"ckpt":   fmt.Sprint(newest),
			"shards": fmt.Sprint(shardsPerRank),
		},
	})
	if err != nil {
		return err
	}
	if err := restart(4, lines[0], 1, true); err != nil {
		return err
	}

	fmt.Println("\n--- shardstore metrics ---")
	return reg.Dump(os.Stdout)
}
