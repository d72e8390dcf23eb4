// Command ndpcr-node demonstrates the functional compute-node runtime end
// to end: it runs a mini-app, commits checkpoints to NVM, lets the NDP
// drain them (compressed) to the global store, injects a node failure that
// wipes local storage, restores from the I/O level, and verifies the
// trajectory matches an uninterrupted twin run.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ndpcr/internal/cluster"
	"ndpcr/internal/cluster/elastic"
	"ndpcr/internal/compress"
	"ndpcr/internal/iod"
	"ndpcr/internal/lifecycle"
	"ndpcr/internal/metrics"
	"ndpcr/internal/miniapps"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/shardstore"
)

func main() {
	var (
		appName  = flag.String("app", "HPCCG", "mini-app to run")
		steps    = flag.Int("steps", 9, "total steps to run")
		every    = flag.Int("checkpoint-every", 3, "steps between checkpoints")
		codecID  = flag.String("codec", "gzip", "drain compression codec name (empty = none)")
		level    = flag.Int("level", 1, "codec level")
		failAt   = flag.Int("fail-at", 7, "step at which the node failure strikes (0 = never)")
		seed     = flag.Uint64("seed", 42, "app seed")
		incr     = flag.Bool("incremental", false, "drain incrementally (changed blocks only)")
		iodAddr  = flag.String("iod", "", "drain to a remote ndpcr-iod store at this address instead of in-process")
		iodAddrs = flag.String("iod-addrs", "", "comma-separated ndpcr-iod addresses: drain through the sharded, replicated store tier")
		replicas = flag.Int("replicas", 2, "replica count R per checkpoint object across -iod-addrs backends")
		iodLanes = flag.Int("iod-lanes", 2, "concurrent transport lanes to each remote I/O node (1 = serial legacy wire)")
		drainWin = flag.Int("drain-window", 0, "NDP send window: blocks in flight to the store per drain (0 = default)")
		drTries  = flag.Int("drain-attempts", 0, "automatic drain retries per checkpoint before permanent failure (0 = no retry)")
		dumpMet  = flag.Bool("metrics", false, "print per-checkpoint phase timelines and pipeline metrics after the run")
		rrRanks  = flag.Int("restart-ranks", 0, "commit elastic (framed) checkpoints and, at -fail-at, restart through the restore planner onto this many in-process targets instead of the same-shape path (0 = classic restore)")
		joinAddr = flag.String("join", "", "shard tier: add this ndpcr-iod backend to the member set at -member-at (requires -iod-addrs)")
		decomm   = flag.String("decommission", "", "shard tier: decommission this backend at -member-at, draining its replicas off first (requires -iod-addrs)")
		memberAt = flag.Int("member-at", 0, "step after whose checkpoint the -join/-decommission membership changes land (0 = never)")
	)
	flag.Parse()

	var codec compress.Codec
	if *codecID != "" {
		var err error
		codec, err = compress.Lookup(*codecID, *level)
		if err != nil {
			fatal(err)
		}
	}

	var store iostore.Backend = iostore.New(nvm.Pacer{})
	var shard *shardstore.Store
	switch {
	case *iodAddrs != "":
		addrs := strings.Split(*iodAddrs, ",")
		cfg := shardstore.Config{Replicas: *replicas}
		if *memberAt > 0 {
			cfg.OnEvent = func(ev shardstore.Event) {
				if ev.Err != nil {
					return // contention voids retry silently; metrics count them
				}
				fmt.Printf("  shard membership: %s %s (moved %d, dropped %d)\n",
					ev.Kind, ev.Backend, ev.Moved, ev.Dropped)
			}
		}
		var err error
		shard, err = shardstore.Dial(addrs, *iodLanes, cfg)
		if err != nil {
			fatal(err)
		}
		defer shard.Close()
		store = shard
		fmt.Printf("draining through the shard tier: %d backend(s), %d replica(s) per object\n",
			len(addrs), *replicas)
	case *iodAddr != "":
		client, err := iod.DialPool(*iodAddr, *iodLanes)
		if err != nil {
			fatal(err)
		}
		defer client.Close()
		store = client
		fmt.Printf("draining to remote I/O node at %s over %d lane(s)\n", *iodAddr, client.Lanes())
	}
	reg := metrics.NewRegistry()
	if in, ok := store.(interface{ Instrument(*metrics.Registry) }); ok {
		in.Instrument(reg)
	}
	n, err := node.New(node.Config{
		Job: "demo", Rank: 0, Store: store, Codec: codec, Metrics: reg,
		Incremental:      *incr,
		DrainWindow:      *drainWin,
		MaxDrainAttempts: *drTries,
		OnError:          func(err error) { fmt.Fprintf(os.Stderr, "ndp async error: %v\n", err) },
	})
	if err != nil {
		fatal(err)
	}
	defer n.Close()

	if (*joinAddr != "" || *decomm != "") && (shard == nil || *memberAt <= 0) {
		fatal(fmt.Errorf("-join/-decommission require -iod-addrs and a positive -member-at"))
	}

	app, err := miniapps.New(*appName, miniapps.Small, *seed)
	if err != nil {
		fatal(err)
	}
	twin, _ := miniapps.New(*appName, miniapps.Small, *seed)

	fmt.Printf("running %s for %d steps, checkpoint every %d, drain codec %s\n",
		*appName, *steps, *every, codecLabel(codec))

	// SIGINT/SIGTERM interrupt the run cleanly: finish the current step,
	// let the last committed checkpoint drain, close the runtime, exit 0 —
	// the run is resumable from the drained checkpoint.
	ctx, stop := lifecycle.SignalContext(context.Background())
	defer stop()

	var lastCommitted uint64
	for s := 1; s <= *steps; s++ {
		if ctx.Err() != nil {
			fmt.Printf("\nndpcr-node: interrupted at step %d; draining checkpoint %d and exiting\n",
				s, lastCommitted)
			waitDrain(n, lastCommitted)
			n.Close()
			return
		}
		if err := app.Step(); err != nil {
			fatal(err)
		}
		twin.Step()

		if s%*every == 0 {
			var buf bytes.Buffer
			if err := app.Checkpoint(&buf); err != nil {
				fatal(err)
			}
			payload := buf.Bytes()
			meta := node.Metadata{Step: s}
			if *rrRanks > 0 {
				// Elastic commits: frame the snapshot so the restore
				// planner can re-cut it onto a different rank count, and
				// stamp the shard count the planner reads from Stat.
				payload = elastic.FrameBytes(payload, 0)
				if meta.Shards, err = elastic.ShardCount(payload); err != nil {
					fatal(err)
				}
			}
			id, err := n.Commit(ctx, payload, meta)
			if err != nil {
				fatal(err)
			}
			lastCommitted = id
			fmt.Printf("  step %2d: committed checkpoint %d (%d bytes) to NVM\n",
				s, id, buf.Len())
		}

		if *memberAt > 0 && s == *memberAt && shard != nil {
			// Land the membership changes right here — typically while the
			// last committed checkpoint is still draining, which is exactly
			// the window the drain controller must survive.
			if *joinAddr != "" {
				if err := shard.AddBackendAddr(*joinAddr, *iodLanes); err != nil {
					fatal(err)
				}
				fmt.Printf("  step %2d: shard tier: added backend %s (joining)\n", s, *joinAddr)
			}
			if *decomm != "" {
				if err := shard.Decommission(*decomm); err != nil {
					fatal(err)
				}
				fmt.Printf("  step %2d: shard tier: decommissioning %s\n", s, *decomm)
			}
		}

		if *failAt > 0 && s == *failAt {
			waitDrain(n, lastCommitted)
			fmt.Printf("  step %2d: NODE FAILURE — local NVM wiped\n", s)
			n.FailLocal()
			var (
				data []byte
				meta node.Metadata
				lvl  node.Level
				err  error
			)
			if *rrRanks > 0 {
				// Elastic restart: plan the dead rank's framed checkpoint
				// onto -restart-ranks in-process targets, execute every
				// member's slice of the plan against the store, and
				// reassemble — the merged members must be the original
				// snapshot byte-identically.
				plan, perr := cluster.PlanRestore(context.Background(), store, "demo",
					cluster.RestoreSpec{SourceRanks: 1, TargetRanks: *rrRanks})
				if perr != nil {
					fatal(perr)
				}
				members := make([][]byte, *rrRanks)
				for t := range members {
					if members[t], meta, lvl, err = n.RestoreElastic(
						context.Background(), plan.Targets[t], true); err != nil {
						fatal(err)
					}
				}
				merged, merr := elastic.MergedBytes(members)
				if merr != nil {
					fatal(merr)
				}
				data = merged
				fmt.Printf("           elastic restart: line %d re-planned 1→%d (%d shards), members reassembled\n",
					plan.Line, *rrRanks, plan.TotalShards)
			} else if data, meta, lvl, err = n.Restore(context.Background()); err != nil {
				fatal(err)
			}
			if err := app.Restore(bytes.NewReader(data)); err != nil {
				fatal(err)
			}
			fmt.Printf("           restored checkpoint from %s level (step %d)\n", lvl, meta.Step)
			// Re-execute lost steps to catch up with the twin.
			for app.StepCount() < s {
				if err := app.Step(); err != nil {
					fatal(err)
				}
			}
			fmt.Printf("           re-ran %d lost steps\n", s-meta.Step)
		}
	}

	if *decomm != "" && shard != nil {
		waitDrain(n, lastCommitted)
		wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := shard.WaitDecommissioned(wctx, *decomm)
		cancel()
		if err != nil {
			fatal(fmt.Errorf("decommission of %s never completed: %w", *decomm, err))
		}
		fmt.Printf("shard tier: %s decommissioned; members now %v\n", *decomm, shard.Members())
	}

	if app.Signature() == twin.Signature() {
		fmt.Printf("\nOK: trajectory after failure+restore matches the uninterrupted twin (step %d)\n",
			app.StepCount())
	} else {
		fmt.Println("\nMISMATCH: restored trajectory diverged from the twin")
		os.Exit(1)
	}

	if *dumpMet {
		fmt.Println("\n--- checkpoint pipeline timelines (commit -> pause -> compress -> xmit -> ack) ---")
		if err := n.Timelines().Dump(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println("\n--- pipeline metrics ---")
		if err := n.Metrics().Dump(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func waitDrain(n *node.Node, want uint64) {
	if n.Engine() == nil || want == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.WaitDurableCtx(ctx, want, ndp.LevelStore); err != nil {
		fmt.Fprintf(os.Stderr, "warning: drain did not complete before the failure: %v\n", err)
	}
}

func codecLabel(c compress.Codec) string {
	if c == nil {
		return "none"
	}
	return compress.ID(c)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ndpcr-node: %v\n", err)
	os.Exit(1)
}
