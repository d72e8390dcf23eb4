package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"ndpcr/internal/cluster"
	"ndpcr/internal/compress"
	"ndpcr/internal/iod"
	"ndpcr/internal/metrics"
	"ndpcr/internal/miniapps"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/shardstore"
)

// runShardChaos demonstrates the sharded, replicated store tier surviving
// the loss of an I/O node: three live ndpcr-iod servers on loopback TCP, a
// shardstore client placing every checkpoint object on R=2 of them, and a
// coordinated cluster draining through the tier. One backend is killed
// while the NDP engines are mid-drain; the run asserts no committed
// restart line is lost, recovers the cluster from the surviving replicas,
// and re-replicates every object back to R copies.
func runShardChaos() error {
	const (
		ranks    = 2
		backends = 3
		rounds   = 3
	)

	fmt.Printf("shard-chaos: %d ranks draining through %d iod backends, R=2\n\n", ranks, backends)

	// Live I/O nodes on loopback TCP.
	servers := make([]*iod.Server, backends)
	addrs := make([]string, backends)
	for i := range servers {
		srv, err := iod.NewServer(iostore.New(nvm.Pacer{}))
		if err != nil {
			return err
		}
		go srv.ListenAndServe("127.0.0.1:0")
		for srv.Addr() == nil {
			time.Sleep(time.Millisecond)
		}
		servers[i] = srv
		addrs[i] = srv.Addr().String()
		defer srv.Close()
		fmt.Printf("  iod-%d listening on %s\n", i, addrs[i])
	}

	store, err := shardstore.Dial(addrs, 2, shardstore.Config{
		Replicas:    2,
		CallTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer store.Close()

	gz, _ := compress.Lookup("gzip", 1)
	nodes := make([]*node.Node, ranks)
	apps := make([]*chaosRank, ranks)
	rankIfaces := make([]cluster.Rank, ranks)
	for i := 0; i < ranks; i++ {
		app, err := miniapps.New("HPCCG", miniapps.Small, uint64(4200+i))
		if err != nil {
			return err
		}
		apps[i] = &chaosRank{app: app}
		rankIfaces[i] = apps[i]
		nodes[i], err = node.New(node.Config{
			Job: "shardchaos", Rank: i, Store: store,
			Codec: gz, BlockSize: 1 << 14,
		})
		if err != nil {
			return err
		}
	}
	c, err := cluster.New("shardchaos", store, nodes, rankIfaces)
	if err != nil {
		return err
	}
	defer c.Close()

	// Instrument last: every node.New also instruments the shared store
	// into its own registry, and the live counters are wherever the most
	// recent registration put them.
	reg := metrics.NewRegistry()
	store.Instrument(reg)

	var committed []uint64
	fmt.Println()
	for round := 1; round <= rounds; round++ {
		for _, a := range apps {
			if err := a.app.Step(); err != nil {
				return err
			}
		}
		id, err := c.Checkpoint(context.Background(), round, ndp.LevelErasure)
		if err != nil {
			return err
		}
		committed = append(committed, id)
		fmt.Printf("  round %d: checkpoint %d committed\n", round, id)

		if round == rounds {
			// Kill a backend while the final drain is in flight.
			fmt.Printf("  >>> killing iod-1 (%s) mid-drain of checkpoint %d\n", addrs[1], id)
			servers[1].Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = c.WaitDurable(ctx, id, ndp.LevelStore)
		cancel()
		if err != nil {
			return fmt.Errorf("checkpoint %d never drained: %w", id, err)
		}
	}

	// Every committed line must still be restorable through the shard tier.
	lines := c.RestartLines(context.Background())
	fmt.Printf("\n  restart lines after backend death: %v\n", lines)
	lost := 0
	for _, id := range committed {
		found := false
		for _, l := range lines {
			if l == id {
				found = true
			}
		}
		if !found {
			lost++
			fmt.Printf("  LOST restart line %d\n", id)
		}
	}
	fmt.Printf("  lost restart lines: %d\n", lost)
	if lost != 0 {
		return fmt.Errorf("shard-chaos: %d committed restart lines lost to a single backend death", lost)
	}

	// Wipe all local state and recover from the surviving replicas.
	for i := 0; i < ranks; i++ {
		if err := c.FailNode(i); err != nil {
			return err
		}
	}
	out, err := c.Recover(context.Background(), cluster.RecoverOptions{})
	if err != nil {
		return fmt.Errorf("recover with one backend dead: %w", err)
	}
	fmt.Printf("  recovered checkpoint %d (step %d) from the I/O level with iod-1 dead\n", out.ID, out.Step)

	// Re-replicate what the dead backend held back up to R.
	fixed, err := store.Rereplicate(context.Background())
	if err != nil {
		fmt.Printf("  rereplicate note: %v\n", err)
	}
	fmt.Printf("  re-replicated %d objects back to 2 copies\n", fixed)
	for i := 0; i < ranks; i++ {
		k := iostore.Key{Job: "shardchaos", Rank: i, ID: out.ID}
		fmt.Printf("  rank %d checkpoint %d now on %d backends\n", i, out.ID, store.ReplicaCount(context.Background(), k))
	}

	fmt.Println("\n--- shardstore metrics ---")
	return reg.Dump(os.Stdout)
}
