package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"ndpcr/internal/faultinject"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

func TestAsyncSaveAcksAtNVMThenStoreDurable(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.AsyncAck = true })
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()

	payload := bytes.Repeat([]byte("async-state "), 2048)
	id, err := c.SaveAsync(ctx, "acme", "run1", 0, 3, payload)
	if err != nil {
		t.Fatalf("SaveAsync: %v", err)
	}
	// The ack is NVM-level; the durability endpoint must already show it.
	d, err := c.Durability(ctx, "acme", "run1", 0, id, "")
	if err != nil {
		t.Fatalf("Durability: %v", err)
	}
	if !d.Durable("nvm") {
		t.Error("acked async save not NVM-durable")
	}
	if d.Failed {
		t.Errorf("fresh async save reported failed: %s", d.Failure)
	}
	// Wait for store durability, then the payload must be loadable.
	d, err = c.Durability(ctx, "acme", "run1", 0, id, "store")
	if err != nil {
		t.Fatalf("Durability(wait=store): %v", err)
	}
	if !d.Durable("store") {
		t.Fatalf("async save never store-durable: %+v", d)
	}
	got, err := c.Load(ctx, "acme", "run1", 0, id)
	if err != nil {
		t.Fatalf("Load after async save: %v", err)
	}
	if !bytes.Equal(got.Data, payload) {
		t.Error("async-saved payload corrupted")
	}
}

func TestAsyncSaveReturns202WithDurableField(t *testing.T) {
	_, ts := newTestServer(t, nil) // sync default; override per request
	req, _ := http.NewRequest(http.MethodPost,
		ts.URL+"/v1/ns/acme/runs/r/checkpoints?rank=0&step=1&durable=nvm",
		bytes.NewReader(bytes.Repeat([]byte("x"), 4096)))
	req.Header.Set("Authorization", "Bearer tok-acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async save status = %d, want 202", resp.StatusCode)
	}
	var out struct {
		ID      uint64 `json:"id"`
		Durable string `json:"durable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == 0 || out.Durable != "nvm" {
		t.Errorf("async save response = %+v, want id>0 durable=nvm", out)
	}
}

func TestSyncOverrideOnAsyncServer(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.AsyncAck = true })
	req, _ := http.NewRequest(http.MethodPost,
		ts.URL+"/v1/ns/acme/runs/r/checkpoints?rank=0&durable=store",
		bytes.NewReader(bytes.Repeat([]byte("y"), 4096)))
	req.Header.Set("Authorization", "Bearer tok-acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?durable=store on an async server = %d, want 200 (durable ack)", resp.StatusCode)
	}
}

// TestAsyncSaveBackpressure429: when the session NVM is pinned by
// drain-locked residents and admission cannot succeed within the bound, the
// save is rejected with the typed 429 backpressure code — a signal to back
// off, distinct from quota and rate-limit rejections. Both save modes share
// the admission-controlled commit, so a sync save is rejected the same way
// within DrainTimeout rather than failing 500 on a full device.
func TestAsyncSaveBackpressure429(t *testing.T) {
	for _, async := range []bool{true, false} {
		mode := map[bool]string{true: "async", false: "sync"}[async]
		t.Run(mode, func(t *testing.T) {
			in := faultinject.New(11,
				faultinject.Rule{Site: faultinject.SiteStorePut, Mode: faultinject.ModeStall, Delay: 2 * time.Second},
				faultinject.Rule{Site: faultinject.SiteStorePutBlock, Mode: faultinject.ModeStall, Delay: 2 * time.Second},
			)
			const drainTimeout = 100 * time.Millisecond // admission bound
			_, ts := newTestServer(t, func(c *Config) {
				c.Store = faultinject.WrapStore(iostore.New(nvm.Pacer{}), in)
				c.Codec = nil
				c.AsyncAck = async
				c.SessionNVM = 100 << 10
				c.DrainTimeout = drainTimeout
				c.AsyncDrainTimeout = 5 * time.Second
			})
			c := NewClient(ts.URL, "tok-acme")
			ctx := context.Background()
			big := bytes.Repeat([]byte("z"), 70<<10)

			if _, err := c.SaveAsync(ctx, "acme", "run1", 0, 1, big); err != nil {
				t.Fatalf("first async save: %v", err)
			}
			// The stalled store holds the drain lock on checkpoint 1 far
			// past the admission bound: the second save must be told to
			// back off.
			start := time.Now()
			_, err := c.Save(ctx, "acme", "run1", 0, 2, big)
			elapsed := time.Since(start)
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("second %s save: got %v, want APIError", mode, err)
			}
			if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != "backpressure" {
				t.Fatalf("second %s save = %d %q, want 429 backpressure", mode, apiErr.Status, apiErr.Code)
			}
			if elapsed > drainTimeout+time.Second {
				t.Errorf("second %s save took %v to back off, bound is DrainTimeout %v", mode, elapsed, drainTimeout)
			}
		})
	}
}

// TestSyncSaveShutdownReportsShuttingDown is the regression test for the
// drain-timeout/engine-stop conflation: a synchronous save interrupted by
// gateway shutdown must fail with the shutting_down code, not masquerade as
// a drain_timeout — and a checkpoint whose drain completed in the same
// instant must not be rolled back (covered at the ndp layer; here the code
// path). The shutdown uses an already-expired context so session teardown
// begins while the save is still parked in its durability wait.
func TestSyncSaveShutdownReportsShuttingDown(t *testing.T) {
	in := faultinject.New(13,
		faultinject.Rule{Site: faultinject.SiteStorePut, Mode: faultinject.ModeStall, Delay: 1500 * time.Millisecond},
		faultinject.Rule{Site: faultinject.SiteStorePutBlock, Mode: faultinject.ModeStall, Delay: 1500 * time.Millisecond},
	)
	srv, ts := newTestServer(t, func(c *Config) {
		c.Store = faultinject.WrapStore(iostore.New(nvm.Pacer{}), in)
		c.Codec = nil
		c.DrainTimeout = 30 * time.Second // the save would happily wait
	})
	c := NewClient(ts.URL, "tok-acme")

	saveErr := make(chan error, 1)
	go func() {
		_, err := c.Save(context.Background(), "acme", "run1", 0, 1, bytes.Repeat([]byte("s"), 8<<10))
		saveErr <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the save park in its drain wait

	sctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	srv.Shutdown(sctx) // expires waiting for the save, closes sessions

	select {
	case err := <-saveErr:
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("interrupted save: got %v, want APIError", err)
		}
		if apiErr.Code != "shutting_down" {
			t.Fatalf("interrupted save code = %q (%d), want shutting_down", apiErr.Code, apiErr.Status)
		}
		if apiErr.Status != http.StatusServiceUnavailable {
			t.Errorf("interrupted save status = %d, want 503", apiErr.Status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("interrupted save never returned")
	}
}

// TestAsyncShutdownWaitsForPendingDrains: acked async saves must reach the
// store before a graceful shutdown finishes (zero silent losses across
// shutdown).
func TestAsyncShutdownWaitsForPendingDrains(t *testing.T) {
	in := faultinject.New(17,
		faultinject.Rule{Site: faultinject.SiteStorePut, Mode: faultinject.ModeStall, Delay: 150 * time.Millisecond},
		faultinject.Rule{Site: faultinject.SiteStorePutBlock, Mode: faultinject.ModeStall, Delay: 150 * time.Millisecond},
	)
	inner := iostore.New(nvm.Pacer{})
	srv, ts := newTestServer(t, func(c *Config) {
		c.Store = faultinject.WrapStore(inner, in)
		c.Codec = nil
		c.AsyncAck = true
	})
	c := NewClient(ts.URL, "tok-acme")
	id, err := c.SaveAsync(context.Background(), "acme", "run1", 0, 1, bytes.Repeat([]byte("p"), 8<<10))
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := inner.Get(context.Background(), iostore.Key{Job: JobKey("acme", "run1"), Rank: 0, ID: id}); err != nil {
		t.Fatalf("acked async save %d lost across graceful shutdown: %v", id, err)
	}
}

// TestDurabilityEndpointStoreFallback: a restarted gateway has no session
// (and an empty tracker) for old checkpoints, but the durability endpoint
// must still report store-level truth by consulting the store directly.
func TestDurabilityEndpointStoreFallback(t *testing.T) {
	store := iostore.New(nvm.Pacer{})
	_, ts1 := newTestServer(t, func(c *Config) { c.Store = store })
	c1 := NewClient(ts1.URL, "tok-acme")
	id, err := c1.Save(context.Background(), "acme", "run1", 0, 1, bytes.Repeat([]byte("d"), 4096))
	if err != nil {
		t.Fatal(err)
	}
	// A second gateway over the same store: no session, no tracker state.
	_, ts2 := newTestServer(t, func(c *Config) { c.Store = store })
	c2 := NewClient(ts2.URL, "tok-acme")
	d, err := c2.Durability(context.Background(), "acme", "run1", 0, id, "")
	if err != nil {
		t.Fatalf("Durability on restarted gateway: %v", err)
	}
	if !d.Durable("store") {
		t.Errorf("store-held checkpoint %d not reported store-durable after restart: %+v", id, d)
	}
	if d.Failed {
		t.Error("store-held checkpoint reported failed")
	}
}
