package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ndpcr/internal/faultinject"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// stepAll advances every rank's app once.
func stepAll(t *testing.T, apps []*appRank) {
	t.Helper()
	for _, a := range apps {
		if err := a.app.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckpointAckNVMReachesAllLevels(t *testing.T) {
	c, apps, inner := chaosCluster(t, 4, faultinject.New(1),
		WithPartnerReplication(), WithErasureSets(2, 1))
	stepAll(t, apps)
	id, err := c.Checkpoint(context.Background(), apps[0].app.StepCount(), ndp.LevelNVM)
	if err != nil {
		t.Fatal(err)
	}
	// The NVM ack point: every rank is NVM-durable already.
	if !c.DurableAt(id, ndp.LevelNVM) {
		t.Fatal("Checkpoint returned before all ranks were NVM-durable")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, lvl := range []ndp.Level{ndp.LevelPartner, ndp.LevelErasure, ndp.LevelStore} {
		if err := c.WaitDurable(ctx, id, lvl); err != nil {
			t.Fatalf("waiting for %s durability: %v", lvl, err)
		}
	}
	// Partner copies and erasure shards really landed: restores by level
	// are covered elsewhere; here check the store holds every rank.
	for i := 0; i < 4; i++ {
		ids, err := inner.IDs(context.Background(), "job", i)
		if err != nil || !contains(ids, id) {
			t.Errorf("rank %d: checkpoint %d not in the store (ids=%v err=%v)", i, id, ids, err)
		}
	}
}

// fixedRank serves a settable snapshot (asymmetric sizes drive the
// partner-copy failure below).
type fixedRank struct {
	mu   sync.Mutex
	data []byte
}

func (r *fixedRank) Snapshot() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.data...), nil
}

func (r *fixedRank) Restore([]byte) error { return nil }

func (r *fixedRank) set(data []byte) {
	r.mu.Lock()
	r.data = data
	r.mu.Unlock()
}

// partnerMismatchCluster builds two ranks whose rank-0 snapshot (64 KiB)
// fits its own NVM but not its buddy's 32 KiB partner region, so every
// round's partner copy fails. onAsync receives deferred-abort errors.
func partnerMismatchCluster(t *testing.T, onAsync func(error)) (*Cluster, []*fixedRank) {
	t.Helper()
	store := iostore.New(nvm.Pacer{})
	caps := []int64{1 << 20, 32 << 10} // rank 1's partner region: 32 KiB
	nodes := make([]*node.Node, 2)
	ranks := []*fixedRank{{data: make([]byte, 64<<10)}, {data: make([]byte, 4<<10)}}
	rankIfaces := make([]Rank, 2)
	for i := range nodes {
		var err error
		nodes[i], err = node.New(node.Config{
			Job: "job", Rank: i, Store: store,
			BlockSize: 1 << 16, NVMCapacity: caps[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		rankIfaces[i] = ranks[i]
	}
	c, err := New("job", store, nodes, rankIfaces, WithPartnerReplication(), WithOnAsyncError(onAsync))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, ranks
}

// TestCheckpointAckNVMDeferredAbort forces a partner-copy failure in the
// background propagation round. The barrier has already acked at NVM, so
// the failure must surface as a deferred abort — the round rolled back, the
// ID permanently failed on every rank's tracker, and the error reported
// through WithOnAsyncError. No silent loss: waiters learn the checkpoint is
// gone instead of blocking or being told it is durable.
func TestCheckpointAckNVMDeferredAbort(t *testing.T) {
	errCh := make(chan error, 4)
	c, ranks := partnerMismatchCluster(t, func(err error) {
		select {
		case errCh <- err:
		default:
		}
	})

	id, err := c.Checkpoint(context.Background(), 1, ndp.LevelNVM)
	if err != nil {
		t.Fatalf("commit barrier failed (fault should hit propagation, not commit): %v", err)
	}
	// The abort is asynchronous: synchronize on its report before
	// asserting, so the test is deterministic regardless of how far the
	// concurrent store drain got.
	select {
	case aerr := <-errCh:
		if aerr == nil {
			t.Fatal("nil async error reported")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deferred abort never reported through WithOnAsyncError")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	werr := c.WaitDurable(ctx, id, ndp.LevelStore)
	if !errors.Is(werr, ndp.ErrCheckpointFailed) {
		t.Fatalf("deferred abort: wait got %v, want ErrCheckpointFailed", werr)
	}
	if c.DurableAt(id, ndp.LevelPartner) || c.DurableAt(id, ndp.LevelStore) {
		t.Error("aborted checkpoint still reported durable")
	}

	// The failed round must not wedge the cluster: shrink the offending
	// snapshot and the next NVM-acked round succeeds end to end with a
	// strictly larger ID.
	ranks[0].set(make([]byte, 4<<10))
	id2, err := c.Checkpoint(context.Background(), 2, ndp.LevelNVM)
	if err != nil {
		t.Fatalf("checkpoint after deferred abort: %v", err)
	}
	if id2 <= id {
		t.Fatalf("next ID %d not larger than aborted %d", id2, id)
	}
	if err := c.WaitDurable(ctx, id2, ndp.LevelStore); err != nil {
		t.Fatalf("round after deferred abort never became store-durable: %v", err)
	}
	if err := c.WaitDurable(ctx, id2, ndp.LevelPartner); err != nil {
		t.Fatalf("round after deferred abort never became partner-durable: %v", err)
	}
}

// TestCheckpointAckNVMRoundsSerialize runs several NVM-acked rounds back
// to back without waiting and verifies they all converge to store durability
// (propagation rounds are serialized internally, so out-of-order completion
// cannot interleave partner/erasure writes of different rounds).
func TestCheckpointAckNVMRoundsSerialize(t *testing.T) {
	c, apps, _ := chaosCluster(t, 2, faultinject.New(1), WithPartnerReplication())
	var ids []uint64
	for round := 0; round < 5; round++ {
		stepAll(t, apps)
		id, err := c.Checkpoint(context.Background(), apps[0].app.StepCount(), ndp.LevelNVM)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for _, id := range ids {
		if err := c.WaitDurable(ctx, id, ndp.LevelStore); err != nil {
			t.Fatalf("checkpoint %d never store-durable: %v", id, err)
		}
		if err := c.WaitDurable(ctx, id, ndp.LevelPartner); err != nil {
			t.Fatalf("checkpoint %d never partner-durable: %v", id, err)
		}
	}
}

// TestCheckpointAckPartnerAbortsInline: the same partner-copy failure under
// an ack above NVM runs inside the call, so Checkpoint itself returns the
// error with the round already rolled back, and nothing is reported as a
// deferred abort.
func TestCheckpointAckPartnerAbortsInline(t *testing.T) {
	c, ranks := partnerMismatchCluster(t, func(err error) {
		t.Errorf("inline propagation failure reported as a deferred abort: %v", err)
	})
	if _, err := c.Checkpoint(context.Background(), 1, ndp.LevelPartner); err == nil {
		t.Fatal("partner copy into a too-small region succeeded")
	}
	for i := 0; i < 2; i++ {
		if ids := c.Node(i).Device().IDs(); len(ids) != 0 {
			t.Errorf("rank %d NVM still holds %v after the inline abort", i, ids)
		}
	}
	if err := c.Node(0).Durability().FailedErr(1); err == nil {
		t.Error("aborted ID 1 not failed on rank 0's tracker")
	}
	ranks[0].set(make([]byte, 4<<10))
	id, err := c.Checkpoint(context.Background(), 2, ndp.LevelPartner)
	if err != nil {
		t.Fatalf("checkpoint after inline abort: %v", err)
	}
	if id <= 1 {
		t.Fatalf("next ID %d not larger than the aborted 1", id)
	}
	if !c.DurableAt(id, ndp.LevelPartner) {
		t.Error("partner-acked checkpoint returned before partner durability")
	}
}

// TestCheckpointAckStoreWaitsForEveryDrain: a store-acked checkpoint
// returns only once every rank's drain landed.
func TestCheckpointAckStoreWaitsForEveryDrain(t *testing.T) {
	c, apps, inner := chaosCluster(t, 3, faultinject.New(1), WithPartnerReplication())
	stepAll(t, apps)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	id, err := c.Checkpoint(ctx, apps[0].app.StepCount(), ndp.LevelStore)
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range []ndp.Level{ndp.LevelNVM, ndp.LevelPartner, ndp.LevelStore} {
		if !c.DurableAt(id, lvl) {
			t.Errorf("store-acked checkpoint %d not durable at %s on return", id, lvl)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := inner.Get(context.Background(), iostore.Key{Job: "job", Rank: i, ID: id}); err != nil {
			t.Errorf("rank %d: checkpoint %d not in the store: %v", i, id, err)
		}
	}
}

// TestCheckpointAckStoreRollsBackOnWaitFailure: when the drain cannot land
// before ctx ends (the store is stalled), a store-acked checkpoint rolls
// the round back and returns the wait's error — the ID is failed on every
// tracker and never reported durable, and the next round gets a larger ID.
func TestCheckpointAckStoreRollsBackOnWaitFailure(t *testing.T) {
	in := faultinject.New(7,
		faultinject.Rule{Site: faultinject.SiteStorePut, Mode: faultinject.ModeStall, Delay: 500 * time.Millisecond},
		faultinject.Rule{Site: faultinject.SiteStorePutBlock, Mode: faultinject.ModeStall, Delay: 500 * time.Millisecond},
	)
	c, apps, _ := chaosCluster(t, 2, in)
	stepAll(t, apps)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	id := c.Node(0).NextID()
	if _, err := c.Checkpoint(ctx, apps[0].app.StepCount(), ndp.LevelStore); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("store ack against a stalled store: got %v, want deadline exceeded", err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := c.WaitDurable(wctx, id, ndp.LevelStore); !errors.Is(err, ndp.ErrCheckpointFailed) {
		t.Fatalf("rolled-back ID %d: wait got %v, want ErrCheckpointFailed", id, err)
	}
	for i := 0; i < 2; i++ {
		for _, got := range c.Node(i).Device().IDs() {
			if got == id {
				t.Errorf("rank %d NVM still holds rolled-back checkpoint %d", i, id)
			}
		}
	}
	stepAll(t, apps)
	id2, err := c.Checkpoint(context.Background(), apps[0].app.StepCount(), ndp.LevelNVM)
	if err != nil {
		t.Fatal(err)
	}
	if id2 <= id {
		t.Fatalf("next ID %d not larger than rolled-back %d", id2, id)
	}
}
