package gateway

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/shardstore"
)

// TestSessionsOpenWhileDrainsRun opens many sessions over one shared shard
// store while earlier sessions' drains are in flight. Every session's node
// drains through the same store, so nothing a new session does may write
// state those drains read; run under -race to check it.
func TestSessionsOpenWhileDrainsRun(t *testing.T) {
	var members []shardstore.Member
	for i := 0; i < 2; i++ {
		members = append(members, shardstore.Member{
			Name:  fmt.Sprintf("backend-%d", i),
			Store: iostore.New(nvm.Pacer{}),
		})
	}
	shard, err := shardstore.New(members, shardstore.Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	_, ts := newTestServer(t, func(c *Config) { c.Store = shard })
	c := NewClient(ts.URL, "tok-acme")
	ctx := context.Background()
	payload := bytes.Repeat([]byte("session-state "), 4096)

	const sessions = 16
	ids := make([]uint64, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each run is a fresh session; the async ack returns while its
			// drain is still running, so later sessions open beside it.
			id, err := c.SaveAsync(ctx, "acme", fmt.Sprintf("run-%d", i), 0, 1, payload)
			if err != nil {
				t.Errorf("save on session %d: %v", i, err)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id == 0 {
			continue
		}
		d, err := c.Durability(ctx, "acme", fmt.Sprintf("run-%d", i), 0, id, "store")
		if err != nil {
			t.Fatalf("durability of session %d: %v", i, err)
		}
		if !d.Durable("store") {
			t.Errorf("session %d checkpoint %d never store-durable: %+v", i, id, d)
		}
	}
}
