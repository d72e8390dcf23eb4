package iod

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/iod/wire"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// latencyStore models a bandwidth-limited device behind the iod server:
// every block moved costs perBlock of real time, whether it travels in a
// monolithic Get/Put or block by block. StatBlocks/Stat stay free — they
// are metadata. This is what makes lane count and fetch/decompress overlap
// visible in wall-clock benchmarks.
type latencyStore struct {
	*iostore.Store
	perBlock time.Duration
}

func (s *latencyStore) Put(ctx context.Context, o iostore.Object) error {
	time.Sleep(time.Duration(len(o.Blocks)) * s.perBlock)
	return s.Store.Put(ctx, o)
}

func (s *latencyStore) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	time.Sleep(s.perBlock)
	return s.Store.PutBlock(ctx, key, meta, index, block)
}

func (s *latencyStore) Get(ctx context.Context, key iostore.Key) (iostore.Object, error) {
	o, err := s.Store.Get(ctx, key)
	if err != nil {
		return o, err
	}
	time.Sleep(time.Duration(len(o.Blocks)) * s.perBlock)
	return o, nil
}

func (s *latencyStore) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	time.Sleep(s.perBlock)
	return s.Store.GetBlock(ctx, key, index)
}

// benchServer starts an iod server over a latency-shaped store and a lane
// pool dialed against it.
func benchServer(b *testing.B, lanes int, perBlock time.Duration) *Client {
	return benchServerWire(b, lanes, perBlock, 0)
}

// benchServerWire is benchServer with the client's offered wire version
// capped: maxWire 1 reproduces a v1 gob client (the wire benchmark's
// baseline), 0 or 2 negotiates the current binary protocol.
func benchServerWire(b *testing.B, lanes int, perBlock time.Duration, maxWire int) *Client {
	b.Helper()
	backing := &latencyStore{Store: iostore.New(nvm.Pacer{}), perBlock: perBlock}
	srv, err := NewServer(backing)
	if err != nil {
		b.Fatal(err)
	}
	go srv.ListenAndServe("127.0.0.1:0")
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == nil {
		if time.Now().After(deadline) {
			b.Fatal("server never started listening")
		}
		time.Sleep(time.Millisecond)
	}
	if maxWire == 0 {
		maxWire = wire.Version
	}
	client, err := dialPoolWire(srv.Addr().String(), lanes, maxWire)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		client.Close()
		srv.Close()
	})
	return client
}

// BenchmarkDrainLanes measures drain throughput (concurrent PutBlock
// senders, as the NDP engine's send window produces) as the lane count
// grows. Throughput must rise monotonically from 1 to 4 lanes: with one
// lane every 64 KiB block serializes behind the device's per-block
// latency; with N lanes N blocks overlap.
func BenchmarkDrainLanes(b *testing.B) {
	const blockSize = 64 << 10
	block := bytes.Repeat([]byte{0xA5}, blockSize)
	for _, lanes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			// A nominal 250µs per block (timer granularity on a loaded host
			// stretches the sleep, so treat it as a floor, not a budget)
			// keeps the device latency, not the v2 codec, as the bottleneck:
			// the claim gated here is monotonic lane scaling, and the
			// wire-bound ceiling lives in BenchmarkWireDrain.
			client := benchServer(b, lanes, 250*time.Microsecond)
			key := iostore.Key{Job: "bench", Rank: 0, ID: 1}
			meta := iostore.Object{Key: key, OrigSize: blockSize}
			var next atomic.Int64
			b.SetBytes(blockSize)
			// Model the NDP engine's send window: several senders in
			// flight regardless of how many CPUs the host has, so lane
			// scaling is visible even on a single-core runner.
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1))
					// Cycle 64 indices so the backing object stays bounded
					// while every send still crosses the wire and pays the
					// device's per-block cost.
					if err := client.PutBlock(context.Background(), key, meta, i%64, block); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkWireDrain isolates the wire codec: a 4-lane drain against a
// zero-latency store, so every nanosecond is framing, copying, and
// allocation — the part of the stack protocol v2 replaces. Blocks are
// 16 KiB (the experiments' drain block size, where per-block codec
// overhead is most visible against the loopback syscall floor) and carry
// a production-shaped metadata map (the NDP engine sends Meta: ckpt.Meta
// on every PutBlock), which gob re-reflects and re-allocates per block
// while the binary codec varint-codes flat and memoizes server-side.
// wire=v1 is the gob baseline via a version-capped client; bench_iod.sh
// compares the two and gates the v2 number against the recorded v1
// 4-lane drain baseline.
func BenchmarkWireDrain(b *testing.B) {
	const blockSize = 16 << 10
	block := bytes.Repeat([]byte{0xA5}, blockSize)
	for _, wireVer := range []int{1, 2} {
		b.Run(fmt.Sprintf("wire=v%d", wireVer), func(b *testing.B) {
			client := benchServerWire(b, 4, 0, wireVer)
			key := iostore.Key{Job: "bench", Rank: 0, ID: 1}
			meta := iostore.Object{
				Key: key, OrigSize: blockSize, Codec: "gzip", CodecLevel: 1,
				// The BLCR-style map node.Metadata.toMap attaches to every
				// checkpoint, which the engine forwards on every PutBlock.
				Meta: map[string]string{"job": "bench", "rank": "0", "step": "400", "ckpt": "1"},
			}
			var next atomic.Int64
			b.SetBytes(blockSize)
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1))
					if err := client.PutBlock(context.Background(), key, meta, i%64, block); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// benchSnapshot builds a deterministic, moderately compressible snapshot:
// compressible enough that gzip does real work, noisy enough that the
// compressed object still spans many blocks.
func benchSnapshot(size int) []byte {
	r := rand.New(rand.NewSource(42))
	snap := make([]byte, size)
	for i := range snap {
		snap[i] = byte(i/256) ^ byte(r.Intn(8))
	}
	return snap
}

// plainAPI hides the block-read path of the wrapped store: StatBlocks
// declines every key, so a restore through it takes the monolithic
// whole-object fallback — what a store predating block streaming looked
// like.
type plainAPI struct{ inner iostore.Backend }

func (p plainAPI) Put(ctx context.Context, o iostore.Object) error { return p.inner.Put(ctx, o) }
func (p plainAPI) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	return p.inner.PutBlock(ctx, key, meta, index, block)
}
func (p plainAPI) Delete(ctx context.Context, key iostore.Key) error { return p.inner.Delete(ctx, key) }
func (p plainAPI) Get(ctx context.Context, key iostore.Key) (iostore.Object, error) {
	return p.inner.Get(ctx, key)
}
func (p plainAPI) Stat(ctx context.Context, key iostore.Key) (iostore.Object, bool, error) {
	return p.inner.Stat(ctx, key)
}
func (p plainAPI) IDs(ctx context.Context, job string, rank int) ([]uint64, error) {
	return p.inner.IDs(ctx, job, rank)
}
func (p plainAPI) Latest(ctx context.Context, job string, rank int) (uint64, bool, error) {
	return p.inner.Latest(ctx, job, rank)
}
func (p plainAPI) Keys(ctx context.Context) ([]iostore.Key, error) { return p.inner.Keys(ctx) }
func (p plainAPI) StatBlocks(ctx context.Context, key iostore.Key) (iostore.Object, int, bool, error) {
	return iostore.Object{}, 0, false, nil
}
func (p plainAPI) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	return nil, iostore.ErrNotFound
}

// BenchmarkStreamedRestore compares a full node restore through the iod
// transport in both shapes: mode=streamed fetches blocks individually and
// overlaps the fetch with the decompression pool; mode=whole is the legacy
// serial fetch-everything-then-decompress path (BlockReader hidden).
// Streamed must beat whole: the serial path's time is the SUM of transfer
// and decompress, the streamed path's is roughly their MAX divided across
// lanes.
func BenchmarkStreamedRestore(b *testing.B) {
	gz, err := compress.Lookup("gzip", 1)
	if err != nil {
		b.Fatal(err)
	}
	snap := benchSnapshot(512 << 10)
	for _, mode := range []string{"streamed", "whole"} {
		b.Run("mode="+mode, func(b *testing.B) {
			client := benchServer(b, 4, 500*time.Microsecond)
			var store iostore.Backend = client
			if mode == "whole" {
				store = plainAPI{inner: client}
			}
			n, err := node.New(node.Config{
				Job: "bench", Rank: 0, Store: store,
				BlockSize: 8192, Codec: gz,
				RestoreWorkers: 4, PrefetchBlocks: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(n.Close)
			// Drain through the real NDP pipeline so the stored object has
			// the production shape: one independently-compressed block per
			// BlockSize chunk of the snapshot.
			id, err := n.Commit(context.Background(), snap, node.Metadata{Step: 1})
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			err = n.WaitDurableCtx(ctx, id, ndp.LevelStore)
			cancel()
			if err != nil {
				b.Fatalf("NDP drain never completed: %v", err)
			}
			n.FailLocal()
			b.SetBytes(int64(len(snap)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, _, _, err := n.Restore(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if len(got) != len(snap) {
					b.Fatalf("restored %d bytes, want %d", len(got), len(snap))
				}
			}
		})
	}
}
