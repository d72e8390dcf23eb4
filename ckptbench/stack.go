package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/gateway"
	"ndpcr/internal/iod"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/shardstore"
)

// The production stack, as ndpcr-gateway builds it by default over a
// sharded iod tier.
const (
	numBackends = 3
	replicas    = 2
	iodLanes    = 2
)

// stack is one running instance of the system under test, all in this
// process: three iod servers on loopback TCP, each over its own
// bench-owned iostore.Store, the shard tier over them, and the gateway
// HTTP server in front.
type stack struct {
	stores  []*iostore.Store
	servers []*iod.Server
	served  []chan error
	shard   *shardstore.Store
	gw      *gateway.Server
	reg     *metrics.Registry
	hs      *http.Server
	hsDone  chan error
	base    string

	closeOnce sync.Once
	closeErr  error
}

// startStack brings the stack up. With a tracer, every boundary the
// benchmark constructs is wrapped: the backing stores (iostore), the iod
// clients (iod), the shard tier (shardstore) and the drain codec
// (compress).
func startStack(tenants []gateway.Tenant, tr *tracer) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	members := make([]shardstore.Member, 0, numBackends)
	for i := 0; i < numBackends; i++ {
		store := iostore.New(nvm.Pacer{})
		s.stores = append(s.stores, store)
		var backing iostore.Backend = store
		if tr != nil {
			backing = &tracedBackend{inner: store, tr: tr, layer: layerIOStore, backend: i}
		}
		srv, err := iod.NewServer(backing)
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		done := make(chan error, 1)
		s.servers = append(s.servers, srv)
		s.served = append(s.served, done)
		go func() { done <- srv.Serve(ln) }()

		addr := ln.Addr().String()
		c, err := iod.DialPool(addr, iodLanes)
		if err != nil {
			return nil, fmt.Errorf("backend %s: %w", addr, err)
		}
		var client iostore.Backend = c
		if tr != nil {
			client = &tracedBackend{inner: c, tr: tr, layer: layerIOD, backend: i}
		}
		members = append(members, shardstore.Member{Name: addr, Store: client, Close: c.Close})
	}
	s.shard, err = shardstore.New(members, shardstore.Config{Replicas: replicas})
	if err != nil {
		for _, m := range members {
			m.Close()
		}
		return nil, err
	}
	var front iostore.Backend = s.shard
	codec, err := compress.Lookup("gzip", 1)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		front = &tracedBackend{inner: s.shard, tr: tr, layer: layerShardstore, backend: -1}
		codec = &tracedCodec{inner: codec, tr: tr}
	}
	s.reg = metrics.NewRegistry()
	s.gw, err = gateway.New(gateway.Config{
		Store:             front,
		Tenants:           tenants,
		Codec:             codec,
		DrainTimeout:      30 * time.Second,
		DrainRetryBackoff: 50 * time.Millisecond,
		Metrics:           s.reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: s.gw}
	s.hsDone = make(chan error, 1)
	go func() { s.hsDone <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	return s, nil
}

// close stops every part of the stack and waits for its goroutines. Later
// calls return the first call's error.
func (s *stack) close() error {
	s.closeOnce.Do(func() { s.closeErr = s.stop() })
	return s.closeErr
}

func (s *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var errs []error
	if s.hs != nil {
		errs = append(errs, s.hs.Shutdown(ctx))
		if err := <-s.hsDone; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.gw != nil {
		errs = append(errs, s.gw.Shutdown(ctx))
	}
	if s.shard != nil {
		errs = append(errs, s.shard.Close())
	}
	for i, srv := range s.servers {
		srv.Close()
		errs = append(errs, <-s.served[i])
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return errors.Join(errs...)
}

// holding inspects the bench-owned backing stores directly: how many hold
// a complete copy of key, and how many bytes those copies occupy.
func (s *stack) holding(key iostore.Key) (copies int, stored int64) {
	for _, st := range s.stores {
		if n, ok := storedSize(st, key); ok {
			copies++
			stored += n
		}
	}
	return copies, stored
}

// storedSize is the bytes one backing store holds for key, and whether it
// holds every block of it.
func storedSize(st *iostore.Store, key iostore.Key) (size int64, complete bool) {
	ctx := context.Background()
	_, n, ok, err := st.StatBlocks(ctx, key)
	if err != nil || !ok {
		return 0, false
	}
	complete = n > 0
	for i := 0; i < n; i++ {
		b, err := st.GetBlock(ctx, key, i)
		if err != nil || b == nil {
			complete = false
			continue
		}
		size += int64(len(b))
	}
	return size, complete
}

// residentKeys lists every key any backing store holds, and the bytes
// resident across all of them.
func (s *stack) residentKeys() ([]iostore.Key, int64) {
	var keys []iostore.Key
	var total int64
	for _, st := range s.stores {
		ks, err := st.Keys(context.Background())
		if err != nil {
			continue
		}
		for _, k := range ks {
			keys = append(keys, k)
			n, _ := storedSize(st, k)
			total += n
		}
	}
	return keys, total
}
