package ndp

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nic"
	"ndpcr/internal/node/nvm"
)

func testRig(t *testing.T, codec compress.Codec, serialize bool) (*nvm.Device, *iostore.Store, *Engine) {
	t.Helper()
	dev, err := nvm.NewDevice(64<<20, nvm.Pacer{})
	if err != nil {
		t.Fatal(err)
	}
	store := iostore.New(nvm.Pacer{})
	link, err := nic.NewLink(1<<20, nvm.Pacer{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{
		Job: "job", Rank: 0,
		Device: dev, Store: store, Link: link,
		Codec: codec, Workers: 4, BlockSize: 4096,
		Serialize: serialize,
		OnError:   func(err error) { t.Logf("ndp error: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return dev, store, eng
}

func waitDrain(t *testing.T, eng *Engine, want uint64) {
	t.Helper()
	if err := waitStore(eng, want, 5*time.Second); err != nil {
		t.Fatalf("drain of %d never completed: %v", want, err)
	}
}

func ckptData(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i / 64)
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	dev, _ := nvm.NewDevice(1024, nvm.Pacer{})
	if _, err := New(Config{Device: dev, Store: iostore.New(nvm.Pacer{})}); err == nil {
		t.Error("missing job accepted")
	}
}

func TestDrainUncompressed(t *testing.T) {
	dev, store, eng := testRig(t, nil, false)
	data := ckptData(20000)
	meta := map[string]string{"step": "3"}
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: data, Meta: meta}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	waitDrain(t, eng, 1)

	obj, err := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if obj.Codec != "" {
		t.Errorf("codec = %q, want none", obj.Codec)
	}
	if obj.Meta["step"] != "3" {
		t.Error("metadata not propagated")
	}
	var joined []byte
	for _, b := range obj.Blocks {
		joined = append(joined, b...)
	}
	if !bytes.Equal(joined, data) {
		t.Error("drained bytes differ")
	}
}

func TestDrainCompressedRoundTrip(t *testing.T) {
	gz, _ := compress.Lookup("gzip", 1)
	for _, serialize := range []bool{false, true} {
		dev, store, eng := testRig(t, gz, serialize)
		data := ckptData(100000)
		if err := dev.Put(nvm.Checkpoint{ID: 1, Data: data}); err != nil {
			t.Fatal(err)
		}
		eng.Notify()
		waitDrain(t, eng, 1)

		obj, err := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: 1})
		if err != nil {
			t.Fatal(err)
		}
		if obj.Codec != "gzip" || obj.CodecLevel != 1 {
			t.Fatalf("codec = %s(%d)", obj.Codec, obj.CodecLevel)
		}
		if obj.StoredSize() >= int64(len(data)) {
			t.Error("compression did not shrink the checkpoint")
		}
		var joined []byte
		for i, b := range obj.Blocks {
			plain, err := gz.Decompress(nil, b)
			if err != nil {
				t.Fatalf("block %d: %v", i, err)
			}
			joined = append(joined, plain...)
		}
		if !bytes.Equal(joined, data) {
			t.Errorf("serialize=%v: reassembled bytes differ", serialize)
		}
	}
}

func TestDrainSkipsToLatest(t *testing.T) {
	dev, store, eng := testRig(t, nil, false)
	// Commit three checkpoints before ringing the bell: the engine should
	// drain the newest (policy: as fresh as possible).
	for id := uint64(1); id <= 3; id++ {
		if err := dev.Put(nvm.Checkpoint{ID: id, Data: ckptData(1000)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Notify()
	waitDrain(t, eng, 3)
	if _, err := store.Get(context.Background(), iostore.Key{Job: "job", Rank: 0, ID: 3}); err != nil {
		t.Errorf("latest not drained: %v", err)
	}
	// IDs 1 and 2 were skipped entirely.
	if ids, err := store.IDs(context.Background(), "job", 0); err != nil || len(ids) != 1 {
		t.Errorf("drained ids = %v, %v, want [3]", ids, err)
	}
}

func TestDrainUnlocksCheckpoint(t *testing.T) {
	dev, _, eng := testRig(t, nil, false)
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: ckptData(1000)}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	waitDrain(t, eng, 1)
	// If the engine leaked its drain lock, this Put would need the space
	// and fail; give eviction a reason by filling the device.
	big := make([]byte, 63<<20)
	if err := dev.Put(nvm.Checkpoint{ID: 2, Data: big}); err != nil {
		t.Errorf("post-drain eviction blocked: %v", err)
	}
}

func TestWipeDuringIdleIsSafe(t *testing.T) {
	dev, _, eng := testRig(t, nil, false)
	dev.Put(nvm.Checkpoint{ID: 1, Data: ckptData(100)})
	eng.Notify()
	waitDrain(t, eng, 1)
	dev.Wipe()
	eng.Notify() // nothing to drain; must not wedge or error fatally
	time.Sleep(10 * time.Millisecond)
	if id, ok := eng.Tracker().Watermark(LevelStore); !ok || id != 1 {
		t.Errorf("last drained = %d, %v", id, ok)
	}
}

func TestPauseResumeNVM(t *testing.T) {
	dev, _, eng := testRig(t, nil, false)
	// Pause, commit while paused, resume: drain must proceed afterwards.
	eng.PauseNVM()
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: ckptData(5000)}); err != nil {
		t.Fatal(err)
	}
	eng.Notify()
	time.Sleep(20 * time.Millisecond) // engine should be blocked at the gate
	if _, ok := eng.Tracker().Watermark(LevelStore); ok {
		t.Error("drain completed while NVM was paused")
	}
	eng.ResumeNVM()
	waitDrain(t, eng, 1)
}

func TestConcurrentCommitsAllEventuallyDrainLatest(t *testing.T) {
	dev, store, eng := testRig(t, nil, false)
	var wg sync.WaitGroup
	const n = 20
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			if err := dev.Put(nvm.Checkpoint{ID: id, Data: ckptData(2000)}); err != nil {
				t.Errorf("put %d: %v", id, err)
			}
			eng.Notify()
		}(uint64(i))
	}
	wg.Wait()
	waitDrain(t, eng, n)
	if latest, ok, _ := store.Latest(context.Background(), "job", 0); !ok || latest != n {
		t.Errorf("latest on I/O = %d, %v", latest, ok)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	_, _, eng := testRig(t, nil, false)
	eng.Close()
	eng.Close()
}

func TestDrainUnderEvictionPressure(t *testing.T) {
	// The device holds only a few checkpoints, so the host's commit stream
	// constantly evicts while the engine drains. Every candidate the engine
	// picks is pinned atomically (nvm.LatestLocked), so no drain may fail
	// with a not-found error no matter how the eviction interleaves.
	dev, err := nvm.NewDevice(8<<10, nvm.Pacer{})
	if err != nil {
		t.Fatal(err)
	}
	store := iostore.New(nvm.Pacer{})
	link, err := nic.NewLink(1<<20, nvm.Pacer{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var asyncErrs []error
	eng, err := New(Config{
		Job: "job", Rank: 0,
		Device: dev, Store: store, Link: link,
		BlockSize: 1024,
		OnError: func(err error) {
			mu.Lock()
			asyncErrs = append(asyncErrs, err)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)

	const last = 200
	for id := uint64(1); id <= last; id++ {
		eng.PauseNVM()
		err := dev.Put(nvm.Checkpoint{ID: id, Data: ckptData(2048)})
		eng.ResumeNVM()
		if err != nil {
			t.Fatalf("put %d: %v", id, err)
		}
		eng.Notify()
	}
	waitDrain(t, eng, last)
	mu.Lock()
	defer mu.Unlock()
	if len(asyncErrs) != 0 {
		t.Errorf("drain errors under eviction pressure: %v", asyncErrs)
	}
}
