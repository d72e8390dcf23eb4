package ndp

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

func TestTrackerWatermarkSemantics(t *testing.T) {
	tr := NewTracker()
	defer tr.Close()

	if _, ok := tr.Watermark(LevelStore); ok {
		t.Error("fresh tracker reported a store watermark")
	}
	if tr.DurableAt(1, LevelNVM) {
		t.Error("fresh tracker reported 1 NVM-durable")
	}
	tr.MarkDurable(LevelNVM, 3)
	if !tr.DurableAt(3, LevelNVM) || !tr.DurableAt(1, LevelNVM) {
		t.Error("watermark 3 must cover 3 and the superseded 1")
	}
	if tr.DurableAt(4, LevelNVM) {
		t.Error("watermark 3 reported 4 durable")
	}
	if tr.DurableAt(3, LevelStore) {
		t.Error("NVM mark leaked into the store level")
	}
	// Watermarks never regress.
	tr.MarkDurable(LevelNVM, 2)
	if wm, _ := tr.Watermark(LevelNVM); wm != 3 {
		t.Errorf("watermark regressed to %d", wm)
	}
}

func TestTrackerWaitSatisfiedByNewerMark(t *testing.T) {
	tr := NewTracker()
	defer tr.Close()
	done := make(chan error, 1)
	go func() { done <- tr.WaitDurableCtx(context.Background(), 2, LevelStore) }()
	time.Sleep(2 * time.Millisecond)
	tr.MarkDurable(LevelStore, 5) // skips 2; superseded counts as durable
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("wait on superseded ID: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter on superseded ID never woke")
	}
}

func TestTrackerFailWinsOverWatermark(t *testing.T) {
	tr := NewTracker()
	defer tr.Close()
	cause := errors.New("boom")
	tr.Fail(7, cause)
	tr.MarkDurable(LevelStore, 9)
	if tr.DurableAt(7, LevelStore) {
		t.Error("failed ID reported durable because the watermark passed it")
	}
	err := tr.WaitDurableCtx(context.Background(), 7, LevelStore)
	if !errors.Is(err, ErrCheckpointFailed) {
		t.Errorf("wait on failed ID: got %v, want ErrCheckpointFailed", err)
	}
	if got := tr.FailedErr(7); got == nil {
		t.Error("FailedErr lost the cause")
	}
	// But unrelated IDs stay durable.
	if !tr.DurableAt(9, LevelStore) {
		t.Error("watermark 9 not durable")
	}
}

func TestTrackerFailWakesParkedWaiters(t *testing.T) {
	tr := NewTracker()
	defer tr.Close()
	done := make(chan error, 1)
	go func() { done <- tr.WaitDurableCtx(context.Background(), 4, LevelPartner) }()
	time.Sleep(2 * time.Millisecond)
	tr.Fail(4, errors.New("propagation aborted"))
	select {
	case err := <-done:
		if !errors.Is(err, ErrCheckpointFailed) {
			t.Errorf("parked waiter got %v, want ErrCheckpointFailed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fail did not wake the parked waiter")
	}
}

func TestTrackerCloseUnblocksWaiters(t *testing.T) {
	tr := NewTracker()
	done := make(chan error, 1)
	go func() { done <- tr.WaitDurableCtx(context.Background(), 1, LevelStore) }()
	time.Sleep(2 * time.Millisecond)
	tr.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) {
			t.Errorf("close delivered %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the waiter")
	}
	if err := tr.WaitDurableCtx(context.Background(), 2, LevelStore); !errors.Is(err, ErrStopped) {
		t.Errorf("wait after close: %v", err)
	}
}

// TestTrackerAbandonedWaitersDoNotLeak is the regression test for the
// abandoned-waiter leak: a wait abandoned by context cancellation must
// remove its own entry immediately, not linger until the next drain sweep.
// It churns many short-deadline waiters against a tracker that never
// completes anything and asserts the waiter set drains to zero.
func TestTrackerAbandonedWaitersDoNotLeak(t *testing.T) {
	tr := NewTracker()
	defer tr.Close()
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5+1)*time.Millisecond)
			defer cancel()
			err := tr.WaitDurableCtx(ctx, uint64(i+1), LevelStore)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("waiter %d: got %v, want deadline exceeded", i, err)
			}
		}(i)
	}
	wg.Wait()
	if n := tr.waiterCount(); n != 0 {
		t.Fatalf("%d abandoned waiters leaked in the tracker", n)
	}
}

// TestEngineAbandonedWaitersDoNotLeak drives the same leak through an
// engine's own tracker: waits that give up against a drain that cannot
// complete (empty device, nothing to drain) must leave no waiter behind.
func TestEngineAbandonedWaitersDoNotLeak(t *testing.T) {
	_, _, eng := testRig(t, nil, false)
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := waitStore(eng, uint64(i+100), time.Duration(i%4+1)*time.Millisecond)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("wait on %d with nothing committed: got %v, want deadline exceeded", i+100, err)
			}
		}(i)
	}
	wg.Wait()
	if n := eng.Tracker().waiterCount(); n != 0 {
		t.Fatalf("%d abandoned waiters leaked", n)
	}
}

// TestEngineStopDuringWaitReportsDurableDrain covers the shutdown
// misreport: when the engine stops in the same instant a drain completes,
// the waiter must see the completed drain, not a false timeout.
func TestEngineStopDuringWaitReportsDurableDrain(t *testing.T) {
	dev, _, eng := testRig(t, nil, false)
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: ckptData(1000)}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	waitDrain(t, eng, 1)
	// Stop the engine, then ask: the tracker remembers the watermark, so
	// even a wait that races the stop channel must report success.
	eng.Close()
	if err := eng.Tracker().WaitDurableCtx(context.Background(), 1, LevelStore); err != nil {
		t.Errorf("tracker wait after stop on drained ID: %v", err)
	}
}

func TestEngineDrainRetryThenPermanentFail(t *testing.T) {
	dev, err := nvm.NewDevice(64<<20, nvm.Pacer{})
	if err != nil {
		t.Fatal(err)
	}
	store := failingStore{Backend: iostore.New(nvm.Pacer{})}
	var mu sync.Mutex
	var errs int
	eng, err := New(Config{
		Job: "job", Rank: 0,
		Device: dev, Store: store,
		Workers: 2, BlockSize: 4096,
		MaxDrainAttempts:  3,
		DrainRetryBackoff: time.Millisecond,
		OnError: func(error) {
			mu.Lock()
			errs++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: ckptData(1000)}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	werr := eng.Tracker().WaitDurableCtx(testCtx(t, 10*time.Second), 1, LevelStore)
	if !errors.Is(werr, ErrCheckpointFailed) {
		t.Fatalf("exhausted retries: got %v, want ErrCheckpointFailed", werr)
	}
	mu.Lock()
	n := errs
	mu.Unlock()
	if n < 3 {
		t.Errorf("engine reported %d errors, want >= MaxDrainAttempts (3)", n)
	}
	// The poisoned ID must not wedge the pipeline for later commits —
	// but the store still fails, so just confirm the engine keeps running.
	if eng.Tracker().FailedErr(1) == nil {
		t.Error("permanently failed drain not recorded on the tracker")
	}
}

func testCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// failingStore rejects every write; all other ops fall through to the
// embedded in-process store.
type failingStore struct{ iostore.Backend }

func (failingStore) Put(ctx context.Context, o iostore.Object) error {
	return errors.New("store down")
}

func (failingStore) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	return errors.New("store down")
}

func TestParseLevelRoundTrip(t *testing.T) {
	for _, lvl := range []Level{LevelNVM, LevelPartner, LevelErasure, LevelStore} {
		got, err := ParseLevel(lvl.String())
		if err != nil || got != lvl {
			t.Errorf("ParseLevel(%q) = %v, %v", lvl.String(), got, err)
		}
	}
	if _, err := ParseLevel("tape"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
	for alias, want := range map[string]Level{"local": LevelNVM, "io": LevelStore} {
		if got, err := ParseLevel(alias); err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", alias, got, err, want)
		}
	}
}
