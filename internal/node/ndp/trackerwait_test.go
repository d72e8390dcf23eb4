package ndp

import (
	"context"
	"errors"
	"testing"
	"time"

	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// waitStore waits up to d for checkpoint id to reach LevelStore on the
// engine's tracker.
func waitStore(eng *Engine, id uint64, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return eng.Tracker().WaitDurableCtx(ctx, id, LevelStore)
}

// TestWaitDrainedCompletes waits on the tracker for a drained checkpoint to
// reach the store, then waits again on the same ID, which must resolve on the
// fast path.
func TestWaitDrainedCompletes(t *testing.T) {
	dev, _, eng := testRig(t, nil, false)
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: ckptData(5000)}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	if err := waitStore(eng, 1, 5*time.Second); err != nil {
		t.Fatalf("wait on checkpoint 1: %v", err)
	}
	// Fast path: already drained, no waiter parked.
	if err := waitStore(eng, 1, time.Millisecond); err != nil {
		t.Errorf("wait on drained checkpoint 1: %v", err)
	}
}

// TestDrainedEventChannel parks a waiter before the doorbell rings: the
// drain's completion itself must wake it, and the store watermark must then
// name the drained checkpoint.
func TestDrainedEventChannel(t *testing.T) {
	dev, _, eng := testRig(t, nil, false)
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: ckptData(100)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- waitStore(eng, 1, 5*time.Second) }()
	time.Sleep(5 * time.Millisecond) // let the waiter park
	eng.Notify()
	if err := <-done; err != nil {
		t.Fatalf("parked wait on checkpoint 1: %v", err)
	}
	if id, ok := eng.Tracker().Watermark(LevelStore); !ok || id != 1 {
		t.Errorf("store watermark = %d, %v; want 1", id, ok)
	}
}

func TestTrackerWaitSatisfiedByNewerDrain(t *testing.T) {
	dev, _, eng := testRig(t, nil, false)
	// Both checkpoints are resident before the bell rings, so the engine
	// skips straight to 2; the waiter on 1 must still be released.
	for id := uint64(1); id <= 2; id++ {
		if err := dev.Put(nvm.Checkpoint{ID: id, Data: ckptData(1000)}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- waitStore(eng, 1, 5*time.Second) }()
	eng.Notify()
	if err := <-done; err != nil {
		t.Errorf("waiter on skipped checkpoint 1 not released by the drain of 2: %v", err)
	}
}

func TestTrackerWaitTimesOut(t *testing.T) {
	_, _, eng := testRig(t, nil, false)
	start := time.Now()
	if err := waitStore(eng, 1, 20*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait with nothing committed: got %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Error("timeout wait overshot")
	}
}

func TestTrackerWaitUnblocksOnEngineClose(t *testing.T) {
	_, _, eng := testRig(t, nil, false)
	done := make(chan error, 1)
	go func() { done <- waitStore(eng, 42, time.Minute) }()
	time.Sleep(5 * time.Millisecond) // let the waiter park
	eng.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) {
			t.Errorf("wait after Close: got %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait still blocked after Close")
	}
}

func TestDiscardedCheckpointNeverDrains(t *testing.T) {
	dev, store, eng := testRig(t, nil, false)
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: ckptData(1000)}); err != nil {
		t.Fatal(err)
	}
	eng.Discard(1)
	eng.Notify()
	if err := waitStore(eng, 1, 50*time.Millisecond); !errors.Is(err, ErrCheckpointFailed) {
		t.Fatalf("wait on discarded checkpoint: got %v, want ErrCheckpointFailed", err)
	}
	if _, err := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: 1}); err == nil {
		t.Error("discarded checkpoint reached global I/O")
	}
	// The poisoned ID must not wedge the drain: a later commit drains
	// normally.
	if err := dev.Put(nvm.Checkpoint{ID: 2, Data: ckptData(1000)}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	if err := waitStore(eng, 2, 5*time.Second); err != nil {
		t.Fatalf("drain after a discarded checkpoint never completed: %v", err)
	}
	if _, err := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: 2}); err != nil {
		t.Errorf("checkpoint 2 missing from global I/O: %v", err)
	}
	// The store watermark passed the dead ID, but it is never acked.
	if err := waitStore(eng, 1, time.Millisecond); !errors.Is(err, ErrCheckpointFailed) {
		t.Errorf("discarded ID acked after the newer drain: %v", err)
	}
}
