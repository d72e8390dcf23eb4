package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/faultinject"
	"ndpcr/internal/metrics"
	"ndpcr/internal/miniapps"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// chaosCluster builds a live cluster whose global store and per-node NVM
// devices run under the given fault injector, mirroring how the chaos
// experiment wires the runtime.
func chaosCluster(t *testing.T, ranks int, in *faultinject.Injector, opts ...Option) (*Cluster, []*appRank, *iostore.Store) {
	t.Helper()
	inner := iostore.New(nvm.Pacer{})
	store := faultinject.WrapStore(inner, in)
	gz, _ := compress.Lookup("gzip", 1)
	nodes := make([]*node.Node, ranks)
	apps := make([]*appRank, ranks)
	rankIfaces := make([]Rank, ranks)
	for i := 0; i < ranks; i++ {
		app, err := miniapps.New("HPCCG", miniapps.Small, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = &appRank{app: app}
		rankIfaces[i] = apps[i]
		nodes[i], err = node.New(node.Config{
			Job: "job", Rank: i, Store: store,
			Codec: gz, BlockSize: 1 << 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].Device().SetFaultHook(in.NVMHook(i))
	}
	c, err := New("job", store, nodes, rankIfaces, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, apps, inner
}

// checkpointRound steps every rank once and runs one coordinated
// checkpoint acked at the store: on success every NDP has finished
// draining the new ID, so the global store's contents are deterministic.
func checkpointRound(t *testing.T, c *Cluster, apps []*appRank) (uint64, error) {
	t.Helper()
	for _, a := range apps {
		if err := a.app.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return c.Checkpoint(ctx, apps[0].app.StepCount(), ndp.LevelStore)
}

// contains reports whether ids includes id.
func contains(ids []uint64, id uint64) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// TestCheckpointAbortRollsBackAllLevels injects a commit failure on one
// rank mid-checkpoint and verifies the abort is clean: no trace of the dead
// ID survives at any level on any node, and the next coordinated checkpoint
// succeeds with a strictly larger ID.
func TestCheckpointAbortRollsBackAllLevels(t *testing.T) {
	in := faultinject.New(2017, faultinject.Rule{
		Site: faultinject.SiteNVMPut, Rank: 1, After: 1, Count: 1,
	})
	c, apps, store := chaosCluster(t, 4, in,
		WithPartnerReplication(), WithErasureSets(2, 1))

	id1, err := checkpointRound(t, c, apps)
	if err != nil || id1 != 1 {
		t.Fatalf("round 1: id=%d err=%v", id1, err)
	}
	// Round 2: rank 1's NVM put fails; the whole checkpoint must abort.
	if _, err := checkpointRound(t, c, apps); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("round 2 error = %v, want injected", err)
	}
	if got := c.mRollbacks.Value(); got != 1 {
		t.Errorf("rollbacks = %d, want 1", got)
	}
	// Round 3: the cluster must have resynchronized — the aborted ID 2 is
	// skipped, never reused.
	id3, err := checkpointRound(t, c, apps)
	if err != nil {
		t.Fatalf("round 3: %v", err)
	}
	if id3 != 3 {
		t.Errorf("round 3 id = %d, want 3 (aborted 2 skipped)", id3)
	}

	// No partial state for the dead ID at any level, on any node.
	const dead = 2
	for i := 0; i < 4; i++ {
		if contains(c.Node(i).Device().IDs(), dead) {
			t.Errorf("rank %d NVM still holds aborted checkpoint %d", i, dead)
		}
		buddy := c.Node((i + 1) % 4)
		if contains(buddy.PartnerCopyIDs(i), dead) {
			t.Errorf("rank %d partner copy of aborted checkpoint %d survives", i, dead)
		}
		for s := 0; s < 3; s++ { // k+m shards
			holders := c.shardHolders(i)
			if _, ok := c.Node(holders[s%len(holders)]).ErasureShard(i, s, dead); ok {
				t.Errorf("rank %d erasure shard %d of aborted checkpoint %d survives", i, s, dead)
			}
		}
		ids, err := store.IDs(context.Background(), "job", i)
		if err != nil {
			t.Fatal(err)
		}
		if contains(ids, dead) {
			t.Errorf("rank %d global object for aborted checkpoint %d survives", i, dead)
		}
		// The good checkpoints are intact.
		for _, good := range []uint64{1, 3} {
			if !contains(c.Node(i).Device().IDs(), good) {
				t.Errorf("rank %d lost good checkpoint %d in the rollback", i, good)
			}
		}
	}
}

// TestRecoverFallsBackAcrossLines is the end-to-end chaos regression: a
// commit failure aborts one coordinated checkpoint mid-run, a double node
// failure wipes a buddy pair, and an injected global-store read failure
// kills the newest restart line mid-Recover. The cluster must fall back to
// the next-older common line, restore bit-identical state, and keep
// checkpointing with monotonically increasing IDs.
func TestRecoverFallsBackAcrossLines(t *testing.T) {
	in := faultinject.New(2017,
		// Abort checkpoint 2 via rank 1's NVM.
		faultinject.Rule{Site: faultinject.SiteNVMPut, Rank: 1, After: 1, Count: 1},
		// Fail rank 1's first global-store read: that is its restore at the
		// newest line, since the node failures below leave it no other level.
		faultinject.Rule{Site: faultinject.SiteStoreGet, Rank: 1, Count: 1},
	)
	c, apps, _ := chaosCluster(t, 4, in,
		WithPartnerReplication(), WithErasureSets(2, 1))

	var sigs [4]uint64
	for round := 1; round <= 4; round++ {
		id, err := checkpointRound(t, c, apps)
		if round == 2 {
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("round 2 error = %v, want injected", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if want := uint64(round); id != want {
			t.Fatalf("round %d id = %d, want %d", round, id, want)
		}
		if round == 3 {
			for i, a := range apps {
				sigs[i] = a.app.Signature()
			}
		}
	}

	// A buddy pair dies: rank 1 loses its local NVM, its partner copies
	// (hosted on node 2), and all but one of its erasure shards (nodes 2,3
	// hold them; node 2 is gone) — global I/O is its only level left.
	if err := c.FailNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(2); err != nil {
		t.Fatal(err)
	}

	lines := c.RestartLines(context.Background())
	if len(lines) != 3 || lines[0] != 4 || lines[1] != 3 || lines[2] != 1 {
		t.Fatalf("restart lines = %v, want [4 3 1]", lines)
	}

	out, err := c.Recover(context.Background(), RecoverOptions{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if out.ID != 3 || out.Step != 3 {
		t.Errorf("recovered to id=%d step=%d, want id=3 step=3", out.ID, out.Step)
	}
	if len(out.FailedLines) != 1 || out.FailedLines[0] != 4 {
		t.Errorf("failed lines = %v, want [4]", out.FailedLines)
	}
	if out.Levels[1] != node.LevelIO {
		t.Errorf("rank 1 restored from %v, want io", out.Levels[1])
	}
	if got := c.mFallbacks.Value(); got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	if got := c.mLineAttempts.Value(); got != 2 {
		t.Errorf("line attempts = %d, want 2", got)
	}
	for i, a := range apps {
		if a.app.Signature() != sigs[i] {
			t.Errorf("rank %d state differs from checkpoint 3 after fallback recovery", i)
		}
	}
	if fired := in.Fired(); fired[faultinject.SiteStoreGet] != 1 {
		t.Errorf("store.get fired %d times, want 1", fired[faultinject.SiteStoreGet])
	}
	// Zero residue: the failed restore attempts at line 4 must not leave
	// open restore timelines behind on any rank (finish-or-discard).
	for i := range apps {
		if open := c.Node(i).Timelines().Open(metrics.KindRestore); open != 0 {
			t.Errorf("rank %d: %d restore timeline(s) left open after fallback", i, open)
		}
	}

	// The cluster keeps going: the next coordinated checkpoint commits with
	// the next monotonic ID.
	id, err := checkpointRound(t, c, apps)
	if err != nil {
		t.Fatalf("post-recovery checkpoint: %v", err)
	}
	if id != 5 {
		t.Errorf("post-recovery id = %d, want 5", id)
	}
}

// TestFailedCommitDoesNotDesyncCluster is the regression for the ID-burn
// bug: one rank's failed NVM commit used to consume a checkpoint ID on the
// surviving ranks but not the failed one, so every later coordinated
// checkpoint died with "nodes out of sync". After a failed round the very
// next Checkpoint must succeed.
func TestFailedCommitDoesNotDesyncCluster(t *testing.T) {
	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SiteNVMPut, Rank: 0, Count: 1,
	})
	c, apps, _ := chaosCluster(t, 2, in)

	if _, err := checkpointRound(t, c, apps); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("round 1 error = %v, want injected", err)
	}
	for round := 2; round <= 3; round++ {
		id, err := checkpointRound(t, c, apps)
		if err != nil {
			t.Fatalf("round %d after aborted round 1: %v", round, err)
		}
		if want := uint64(round); id != want {
			t.Errorf("round %d id = %d, want %d", round, id, want)
		}
	}
}
