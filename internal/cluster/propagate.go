package cluster

import (
	"context"
	"fmt"
	"sync"

	"ndpcr/internal/node"
	"ndpcr/internal/node/ndp"
)

// propagate carries one committed round up the redundancy hierarchy:
// partner copies for every rank (parallel), then the erasure encode, each
// level marked durable on every rank's tracker as it lands. Rounds are
// serialized in commit order, so a background round and an inline one
// never interleave their partner/erasure writes. The erasure encode runs
// only after every rank committed, so shards of ID n imply all ranks
// committed n. The caller rolls the round back on error.
func (c *Cluster) propagate(id uint64, step int, snaps [][]byte) error {
	c.propMu.Lock()
	defer c.propMu.Unlock()
	if c.partner {
		errs := make([]error, len(c.ranks))
		var wg sync.WaitGroup
		for i := range c.ranks {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				meta := node.Metadata{Job: c.job, Rank: i, Step: step}
				buddy := c.nodes[(i+1)%len(c.nodes)]
				if err := buddy.StorePartnerCopy(i, id, snaps[i], meta); err != nil {
					errs[i] = fmt.Errorf("cluster: rank %d partner copy %d: %w", i, id, err)
					return
				}
				c.nodes[i].Durability().MarkDurable(ndp.LevelPartner, id)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	if c.eraCode != nil {
		if err := c.encodeErasure(id, step, snaps); err != nil {
			return err
		}
		c.markDurable(ndp.LevelErasure, id)
	}
	return nil
}

// WaitDurable blocks until checkpoint id is durable at level on every
// rank, any rank permanently fails it (error wraps ndp.ErrCheckpointFailed),
// ctx ends, or the cluster shuts down.
func (c *Cluster) WaitDurable(ctx context.Context, id uint64, level ndp.Level) error {
	for i, n := range c.nodes {
		if err := n.WaitDurableCtx(ctx, id, level); err != nil {
			return fmt.Errorf("cluster: rank %d durability %d@%s: %w", i, id, level, err)
		}
	}
	return nil
}

// DurableAt reports whether checkpoint id is durable at level on every
// rank.
func (c *Cluster) DurableAt(id uint64, level ndp.Level) bool {
	for _, n := range c.nodes {
		if !n.DurableAt(id, level) {
			return false
		}
	}
	return true
}
