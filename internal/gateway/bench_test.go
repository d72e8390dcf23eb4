package gateway

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/units"
)

// BenchmarkGatewaySave measures end-to-end save throughput (commit + NDP
// drain + durable ack over HTTP) as the concurrent tenant count scales.
// Each tenant hammers its own namespace/run, so the benchmark exercises
// the multi-tenant session map, quota accounting, and per-tenant rate
// machinery, not just one hot session. Custom metrics: req/s aggregate,
// and the client-timed nearest-rank p99 save latency in ms with its sample
// count.
func BenchmarkGatewaySave(b *testing.B) {
	for _, tenants := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			var ts []Tenant
			for i := 0; i < tenants; i++ {
				ts = append(ts, Tenant{
					Name:  fmt.Sprintf("t%02d", i),
					Token: fmt.Sprintf("tok-%02d", i),
				})
			}
			srv, err := New(Config{
				Store:        iostore.New(nvm.Pacer{}),
				Tenants:      ts,
				DrainTimeout: 30 * time.Second,
			})
			if err != nil {
				b.Fatalf("New: %v", err)
			}
			hs := httptest.NewServer(srv)
			defer func() {
				hs.Close()
				srv.Shutdown(context.Background())
			}()

			payload := bytes.Repeat([]byte("bench-state "), 341) // ~4 KiB
			var ops atomic.Int64
			var failed atomic.Int64
			lat := make([][]time.Duration, tenants)
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for i := 0; i < tenants; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c := NewClient(hs.URL, fmt.Sprintf("tok-%02d", i))
					ns := fmt.Sprintf("t%02d", i)
					for step := 0; ; step++ {
						if ops.Add(1) > int64(b.N) {
							return
						}
						t0 := time.Now()
						if _, err := c.Save(context.Background(), ns, "bench", 0, step, payload); err != nil {
							failed.Add(1)
							return
						}
						lat[i] = append(lat[i], time.Since(t0))
					}
				}(i)
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			if n := failed.Load(); n > 0 {
				b.Fatalf("%d tenants failed their saves", n)
			}
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
			reportP99(b, lat...)
			b.SetBytes(int64(len(payload)))
		})
	}
}

// reportP99 reports the nearest-rank p99 of client-timed save latencies in
// ms, with the sample count it was taken over. Exact order statistics, not
// histogram bucket edges, so a gate can compare two modes' tails.
func reportP99(b *testing.B, samples ...[]time.Duration) {
	var all []time.Duration
	for _, s := range samples {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return
	}
	slices.Sort(all)
	rank := int(math.Ceil(0.99*float64(len(all)))) - 1
	b.ReportMetric(float64(all[rank])/float64(time.Millisecond), "p99_ms")
	b.ReportMetric(float64(len(all)), "samples")
}

// BenchmarkGatewaySaveAsync measures the async-acknowledge win: the same
// save workload against the same paced store, acknowledged either at store
// durability (mode=sync, the durable-before-ack baseline) or at NVM
// durability with the drain in the background (mode=async). The store is
// paced at a realistic I/O-level bandwidth so the drain has a real cost to
// hide; the claim the async tier makes is that the save p99 observed by the
// client drops strictly below the sync baseline because the drain latency
// leaves the ack path.
func BenchmarkGatewaySaveAsync(b *testing.B) {
	for _, mode := range []string{"sync", "async"} {
		b.Run("mode="+mode, func(b *testing.B) {
			// ~64 KiB payloads over a 500 MB/s paced store: each drain
			// carries ~130 µs of simulated device time that sync acks must
			// wait out and async acks hide.
			pacer := nvm.Pacer{
				Bandwidth: 500 * units.MBps,
				Sleep:     func(s units.Seconds) { time.Sleep(s.Duration()) },
			}
			srv, err := New(Config{
				Store:             iostore.New(pacer),
				Tenants:           []Tenant{{Name: "t00", Token: "tok-00"}},
				DrainTimeout:      30 * time.Second,
				AsyncAck:          mode == "async",
				AsyncDrainTimeout: 2 * time.Minute,
			})
			if err != nil {
				b.Fatalf("New: %v", err)
			}
			hs := httptest.NewServer(srv)
			defer func() {
				hs.Close()
				// Shutdown waits out the pending background drains, so the
				// async mode is not allowed to cheat by never finishing.
				sctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				if err := srv.Shutdown(sctx); err != nil {
					b.Errorf("shutdown with pending drains: %v", err)
				}
			}()

			payload := bytes.Repeat([]byte("async-bench-state "), 3641) // ~64 KiB
			c := NewClient(hs.URL, "tok-00")
			save := func(step int) (uint64, error) {
				if mode == "async" {
					return c.SaveAsync(context.Background(), "t00", "bench", 0, step, payload)
				}
				return c.Save(context.Background(), "t00", "bench", 0, step, payload)
			}
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			start := time.Now()
			for step := 0; step < b.N; step++ {
				t0 := time.Now()
				if _, err := save(step); err != nil {
					b.Fatalf("save step %d: %v", step, err)
				}
				lat = append(lat, time.Since(t0))
			}
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
			reportP99(b, lat)
			b.SetBytes(int64(len(payload)))
		})
	}
}
