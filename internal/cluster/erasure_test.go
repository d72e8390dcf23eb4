package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"ndpcr/internal/miniapps"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// erasureCluster builds a cluster with the erasure-set level enabled and
// the NDP drain disabled, so nothing ever reaches the I/O store: every
// recovery below must be served by local NVM or the erasure level.
func erasureCluster(t *testing.T, ranks, groupSize, parity int) (*Cluster, []*appRank, *iostore.Store) {
	t.Helper()
	store := iostore.New(nvm.Pacer{})
	nodes := make([]*node.Node, ranks)
	apps := make([]*appRank, ranks)
	rankIfaces := make([]Rank, ranks)
	for i := 0; i < ranks; i++ {
		app, err := miniapps.New("HPCCG", miniapps.Small, uint64(300+i))
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = &appRank{app: app}
		rankIfaces[i] = apps[i]
		nodes[i], err = node.New(node.Config{
			Job: "job", Rank: i, Store: store, DisableNDP: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c, err := New("job", store, nodes, rankIfaces, WithErasureSets(groupSize, parity))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, apps, store
}

func assertStoreUntouched(t *testing.T, store *iostore.Store, ranks int) {
	t.Helper()
	for i := 0; i < ranks; i++ {
		if ids, _ := store.IDs(context.Background(), "job", i); len(ids) != 0 {
			t.Fatalf("rank %d touched the I/O store: %v", i, ids)
		}
	}
}

// TestErasureRecoverySingleMemberLoss is the headline acceptance scenario:
// one group member's NVM is lost, and recovery is served entirely from the
// erasure level without touching the I/O store.
func TestErasureRecoverySingleMemberLoss(t *testing.T) {
	c, apps, store := erasureCluster(t, 4, 2, 1)
	for _, a := range apps {
		a.app.Step()
	}
	if _, err := c.Checkpoint(context.Background(), 1, ndp.LevelErasure); err != nil {
		t.Fatal(err)
	}
	want, err := apps[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	out, err := c.Recover(context.Background(), RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 1 || out.Step != 1 {
		t.Fatalf("recovered id=%d step=%d, want 1/1", out.ID, out.Step)
	}
	if out.Levels[0] != node.LevelErasure {
		t.Fatalf("rank 0 restored from %v, want erasure", out.Levels[0])
	}
	for i := 1; i < 4; i++ {
		if out.Levels[i] != node.LevelLocal {
			t.Fatalf("rank %d restored from %v, want local", i, out.Levels[i])
		}
	}
	got, err := apps[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("rank 0 state after erasure recovery differs from checkpoint")
	}
	assertStoreUntouched(t, store, 4)
}

// TestErasureWholeGroupLossDuringCheckpoint races a whole-group failure
// against an in-flight coordinated checkpoint (run under -race by
// scripts/check.sh). Whatever the interleaving, the restart line must be a
// single consistent checkpoint with the lost group served from
// LevelErasure — never a torn mix of levels or steps.
func TestErasureWholeGroupLossDuringCheckpoint(t *testing.T) {
	for round := 0; round < 5; round++ {
		c, apps, store := erasureCluster(t, 4, 2, 1)
		for _, a := range apps {
			a.app.Step()
		}
		if _, err := c.Checkpoint(context.Background(), 1, ndp.LevelErasure); err != nil {
			t.Fatal(err)
		}
		for _, a := range apps {
			a.app.Step()
		}
		done := make(chan error, 1)
		go func() {
			_, err := c.Checkpoint(context.Background(), 2, ndp.LevelErasure)
			done <- err
		}()
		// Group 0 dies while the checkpoint is in flight...
		c.FailNode(0)
		c.FailNode(1)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		// ...and whatever survived the race on their local devices is
		// gone too: the group is definitively lost.
		c.FailNode(0)
		c.FailNode(1)

		out, err := c.Recover(context.Background(), RecoverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out.ID != 2 || out.Step != 2 {
			t.Fatalf("round %d: recovered id=%d step=%d, want 2/2", round, out.ID, out.Step)
		}
		for i := 0; i < 2; i++ {
			if out.Levels[i] != node.LevelErasure {
				t.Fatalf("round %d: lost rank %d restored from %v, want erasure", round, i, out.Levels[i])
			}
		}
		for i := 2; i < 4; i++ {
			if out.Levels[i] != node.LevelLocal {
				t.Fatalf("round %d: surviving rank %d restored from %v, want local", round, i, out.Levels[i])
			}
		}
		assertStoreUntouched(t, store, 4)
	}
}

// TestErasureShardHolderLoss exercises losses among the shard holders
// themselves: up to m holder losses stay recoverable, m+1 do not.
func TestErasureShardHolderLoss(t *testing.T) {
	// 6 ranks in groups of 2, XOR parity: rank 0's three shards live on
	// nodes 2, 3, 4 (round-robin over holders 2..5).
	c, apps, store := erasureCluster(t, 6, 2, 1)
	for _, a := range apps {
		a.app.Step()
	}
	if _, err := c.Checkpoint(context.Background(), 1, ndp.LevelErasure); err != nil {
		t.Fatal(err)
	}
	// Lose rank 0's NVM plus one shard holder: k=2 shards survive.
	c.FailNode(0)
	c.FailNode(2)
	out, err := c.Recover(context.Background(), RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Levels[0] != node.LevelErasure {
		t.Fatalf("rank 0 restored from %v, want erasure", out.Levels[0])
	}
	if out.Levels[2] != node.LevelErasure {
		t.Fatalf("rank 2 restored from %v, want erasure", out.Levels[2])
	}
	assertStoreUntouched(t, store, 6)

	// A second holder loss exceeds parity: rank 0 has one shard left and
	// no restart line exists anywhere.
	c.FailNode(3)
	if _, err := c.RestartLine(context.Background()); !errors.Is(err, ErrNoRestartLine) {
		t.Fatalf("RestartLine after m+1 holder losses: %v, want ErrNoRestartLine", err)
	}
}

func TestWithErasureSetsValidation(t *testing.T) {
	build := func(ranks, groupSize, parity int) error {
		store := iostore.New(nvm.Pacer{})
		nodes := make([]*node.Node, ranks)
		rankIfaces := make([]Rank, ranks)
		for i := range nodes {
			app, err := miniapps.New("HPCCG", miniapps.Small, uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			rankIfaces[i] = &appRank{app: app}
			nodes[i], err = node.New(node.Config{Job: "job", Rank: i, Store: store, DisableNDP: true})
			if err != nil {
				t.Fatal(err)
			}
		}
		c, err := New("job", store, nodes, rankIfaces, WithErasureSets(groupSize, parity))
		if err == nil {
			c.Close()
		}
		return err
	}
	for _, tc := range []struct{ ranks, gs, m int }{
		{4, 0, 1}, // group too small
		{4, 1, 1},
		{4, 2, 0}, // no parity
		{4, 3, 1}, // ranks not a multiple of group size
		{4, 4, 1}, // single group: shards would land in-group
	} {
		if err := build(tc.ranks, tc.gs, tc.m); err == nil {
			t.Errorf("ranks=%d groupSize=%d parity=%d accepted", tc.ranks, tc.gs, tc.m)
		}
	}
	if err := build(4, 2, 1); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
}
