package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"ndpcr/internal/cluster/elastic"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// elasticRank is a PartitionedRank owning a contiguous range of a global
// shard sequence. Shard content is a pure function of (global index,
// step), so the merged job state is identical no matter how the shards are
// distributed across ranks — exactly the position-independence a real
// domain-decomposed application provides.
type elasticRank struct {
	shards [][]byte
	steps  int
}

func shardBody(global, step int) []byte {
	return []byte(fmt.Sprintf("shard%03d@step%03d|%s", global, step,
		bytes.Repeat([]byte{byte(global*13 + step)}, 32)))
}

func newElasticRank(total, m, t int) *elasticRank {
	lo, hi := elastic.SplitRange(total, m, t)
	r := &elasticRank{}
	for g := lo; g < hi; g++ {
		r.shards = append(r.shards, shardBody(g, 0))
	}
	return r
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

// step advances every shard this rank owns. The step counter itself is
// carried in the shard bodies, which is what Restore recovers.
func (r *elasticRank) step() {
	r.steps++
	for i, s := range r.shards {
		var g, st int
		fmt.Sscanf(string(s), "shard%03d@step%03d", &g, &st)
		r.shards[i] = shardBody(g, st+1)
	}
}

// elasticCluster assembles an m-rank cluster of elasticRanks over a shared
// store. seedShards false leaves every rank empty (a restart-target
// cluster that owns nothing until Recover fills it in).
func elasticCluster(t *testing.T, store iostore.Backend, total, m int, seedShards bool) (*Cluster, []*elasticRank) {
	t.Helper()
	nodes := make([]*node.Node, m)
	ranks := make([]*elasticRank, m)
	ifaces := make([]Rank, m)
	for i := 0; i < m; i++ {
		if seedShards {
			ranks[i] = newElasticRank(total, m, i)
		} else {
			ranks[i] = &elasticRank{}
		}
		ifaces[i] = ranks[i]
		var err error
		nodes[i], err = node.New(node.Config{Job: "ejob", Rank: i, Store: store, DisableNDP: true})
		if err != nil {
			t.Fatal(err)
		}
	}
	c, err := New("ejob", store, nodes, ifaces)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, ranks
}

func mergedState(t *testing.T, ranks []*elasticRank) []byte {
	t.Helper()
	frames := make([][]byte, len(ranks))
	for i, r := range ranks {
		frames[i], _ = r.Snapshot()
	}
	out, err := elastic.MergedBytes(frames)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkpointThrough commits a coordinated checkpoint and write-through
// pushes every rank's object to the store (the clusters here run without
// NDP so store content is deterministic).
func checkpointThrough(t *testing.T, c *Cluster, step int) uint64 {
	t.Helper()
	id, err := c.Checkpoint(context.Background(), step, ndp.LevelErasure)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Size(); i++ {
		if err := c.Node(i).WriteThrough(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	return id
}

func TestElasticRecoverMatrix(t *testing.T) {
	const total = 48
	for _, tc := range []struct{ n, m int }{{8, 4}, {8, 12}, {8, 1}, {3, 5}, {6, 6}} {
		t.Run(fmt.Sprintf("%d->%d", tc.n, tc.m), func(t *testing.T) {
			store := iostore.New(nvm.Pacer{})
			src, srcRanks := elasticCluster(t, store, total, tc.n, true)
			for _, r := range srcRanks {
				r.step()
			}
			checkpointThrough(t, src, 1)
			want := mergedState(t, srcRanks)
			src.Close() // the N-rank incarnation is gone

			tgt, tgtRanks := elasticCluster(t, store, total, tc.m, false)
			out, err := tgt.Recover(context.Background(), RecoverOptions{SourceRanks: tc.n})
			if err != nil {
				t.Fatal(err)
			}
			if out.Step != 1 {
				t.Errorf("recovered step %d, want 1", out.Step)
			}
			if out.Plan == nil {
				t.Fatal("elastic recovery returned no plan")
			}
			if tc.n == tc.m && !out.Plan.Identity {
				t.Error("same-shape recovery did not plan identity")
			}
			if got := mergedState(t, tgtRanks); !bytes.Equal(got, want) {
				t.Fatal("merged state after N→M restart differs from checkpointed state")
			}
			// The new incarnation must append after the source history.
			id, err := tgt.Checkpoint(context.Background(), 2, ndp.LevelErasure)
			if err != nil {
				t.Fatal(err)
			}
			if id != out.ID+1 {
				t.Errorf("post-restart checkpoint id %d, want %d", id, out.ID+1)
			}
		})
	}
}

func TestElasticRecoverFallsBackMidReshape(t *testing.T) {
	const total, n, m = 24, 4, 6
	store := iostore.New(nvm.Pacer{})
	src, srcRanks := elasticCluster(t, store, total, n, true)
	for _, r := range srcRanks {
		r.step()
	}
	line1 := checkpointThrough(t, src, 1)
	want := mergedState(t, srcRanks)
	for _, r := range srcRanks {
		r.step()
	}
	line2 := checkpointThrough(t, src, 2)
	src.Close()

	// Poison the newest line on rank 0 *after* the inventory/metadata
	// level: the object stays present with plausible metadata (so planning
	// succeeds), but its payload is not a frame — the executor's decode
	// fails and recovery must fall back a line, not abort.
	shards0, _ := elastic.ShardCount(mustSnapshot(t, srcRanks[0]))
	err := store.Put(context.Background(), iostore.Object{
		Key:      iostore.Key{Job: "ejob", Rank: 0, ID: line2},
		OrigSize: 9,
		Blocks:   [][]byte{[]byte("not-frame")},
		Meta: map[string]string{
			"job": "ejob", "rank": "0", "step": "2",
			"ckpt":   fmt.Sprint(line2),
			"shards": fmt.Sprint(shards0),
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	tgt, tgtRanks := elasticCluster(t, store, total, m, false)
	out, err := tgt.Recover(context.Background(), RecoverOptions{SourceRanks: n})
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != line1 || out.Step != 1 {
		t.Fatalf("recovered to id=%d step=%d, want id=%d step=1", out.ID, out.Step, line1)
	}
	if len(out.FailedLines) != 1 || out.FailedLines[0] != line2 {
		t.Errorf("FailedLines = %v, want [%d]", out.FailedLines, line2)
	}
	if got := mergedState(t, tgtRanks); !bytes.Equal(got, want) {
		t.Fatal("fallback restart did not reproduce the older line's state")
	}
}

func mustSnapshot(t *testing.T, r *elasticRank) []byte {
	t.Helper()
	s, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestElasticRecoverOpaqueSnapshotsRejected(t *testing.T) {
	// Opaque (non-partitioned) checkpoints can restart same-shape but not
	// reshape: the planner must fail every line with ErrNotPartitioned.
	c, apps, _ := testCluster(t, 3, false)
	for _, a := range apps {
		a.app.Step()
	}
	id, err := c.Checkpoint(context.Background(), 1, ndp.LevelErasure)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Size(); i++ {
		if err := c.Node(i).WriteThrough(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	store := c.store
	tgt, _ := elasticCluster(t, store, 0, 2, false)
	_ = tgt
	// Reuse the job name of testCluster ("job"), planning 3→2.
	_, err = PlanRestore(context.Background(), store, "job",
		RestoreSpec{SourceRanks: 3, TargetRanks: 2})
	if !errors.Is(err, ErrNotPartitioned) {
		t.Fatalf("PlanRestore err = %v, want ErrNotPartitioned", err)
	}
}

func TestElasticRecoverStoreOnlySameShape(t *testing.T) {
	// StoreOnly forces the planner path even at N==N: fresh machines with
	// empty NVM restore everything from the store via identity fetches.
	const total, n = 12, 3
	store := iostore.New(nvm.Pacer{})
	src, srcRanks := elasticCluster(t, store, total, n, true)
	for _, r := range srcRanks {
		r.step()
	}
	checkpointThrough(t, src, 1)
	want := mergedState(t, srcRanks)
	src.Close()

	tgt, tgtRanks := elasticCluster(t, store, total, n, false)
	out, err := tgt.Recover(context.Background(), RecoverOptions{StoreOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range out.Levels {
		if l != node.LevelIO {
			t.Errorf("rank %d restored from %v, want io", i, l)
		}
	}
	if got := mergedState(t, tgtRanks); !bytes.Equal(got, want) {
		t.Fatal("store-only restart did not reproduce checkpointed state")
	}
}

func TestRecoverPinnedLine(t *testing.T) {
	// A pinned line restores exactly that line, even when newer ones exist.
	const total, n = 12, 3
	store := iostore.New(nvm.Pacer{})
	src, srcRanks := elasticCluster(t, store, total, n, true)
	for _, r := range srcRanks {
		r.step()
	}
	line1 := checkpointThrough(t, src, 1)
	wantOld := mergedState(t, srcRanks)
	for _, r := range srcRanks {
		r.step()
	}
	checkpointThrough(t, src, 2)
	src.Close()

	tgt, tgtRanks := elasticCluster(t, store, total, 5, false)
	out, err := tgt.Recover(context.Background(), RecoverOptions{SourceRanks: n, Line: line1})
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != line1 || out.Step != 1 {
		t.Fatalf("recovered id=%d step=%d, want id=%d step=1", out.ID, out.Step, line1)
	}
	if got := mergedState(t, tgtRanks); !bytes.Equal(got, wantOld) {
		t.Fatal("pinned-line restart did not reproduce that line's state")
	}
}
