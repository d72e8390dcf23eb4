package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"ndpcr/internal/miniapps"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// flakyInventoryStore is a global store whose *inventory* path can be
// tripped into a transport failure while the data path stays nominal —
// the "level unreachable" condition the restart-line planner must not
// confuse with "level holds no checkpoints".
type flakyInventoryStore struct {
	*iostore.Store
	tripped atomic.Bool
}

var errIODown = errors.New("iod: connection refused")

func (f *flakyInventoryStore) IDs(ctx context.Context, job string, rank int) ([]uint64, error) {
	if f.tripped.Load() {
		return nil, errIODown
	}
	return f.Store.IDs(ctx, job, rank)
}

func (f *flakyInventoryStore) Latest(ctx context.Context, job string, rank int) (uint64, bool, error) {
	if f.tripped.Load() {
		return 0, false, errIODown
	}
	return f.Store.Latest(ctx, job, rank)
}

func TestRecoverDistinguishesUnreachableIO(t *testing.T) {
	// Regression for the masked-inventory bug: a global-store transport
	// outage used to read as an empty ID list, so the planner reported
	// ErrNoRestartLine ("your checkpoints are gone") when the truth was
	// ErrLevelUnavailable ("I cannot see the I/O level right now").
	store := &flakyInventoryStore{Store: iostore.New(nvm.Pacer{})}
	const ranks = 2
	nodes := make([]*node.Node, ranks)
	apps := make([]*appRank, ranks)
	rankIfaces := make([]Rank, ranks)
	for i := 0; i < ranks; i++ {
		app, err := miniapps.New("HPCCG", miniapps.Small, uint64(700+i))
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = &appRank{app: app}
		rankIfaces[i] = apps[i]
		nodes[i], err = node.New(node.Config{
			Job: "invjob", Rank: i, Store: store, DisableNDP: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c, err := New("invjob", store, nodes, rankIfaces)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	for _, a := range apps {
		a.app.Step()
	}
	if _, err := c.Checkpoint(context.Background(), 1, ndp.LevelErasure); err != nil {
		t.Fatal(err)
	}

	// With local copies intact, an inventory outage must not block
	// recovery: the surviving levels still form a restart line.
	store.tripped.Store(true)
	if _, err := c.RestartLine(context.Background()); err != nil {
		t.Fatalf("restart line lost to an I/O-only outage: %v", err)
	}
	out, err := c.Recover(context.Background(), RecoverOptions{})
	if err != nil {
		t.Fatalf("recover during I/O outage: %v", err)
	}
	if out.Step != 1 {
		t.Errorf("recovered to step %d, want 1", out.Step)
	}
	if got := c.Metrics().Counter("ndpcr_cluster_inventory_errors_total", "").Value(); got == 0 {
		t.Error("inventory outage left no trace in ndpcr_cluster_inventory_errors_total")
	}

	// Wipe every local level (no partner replication is configured). Now
	// the unreachable store is the only level that *could* hold a line, and
	// the error must say "unreachable", not "no restart line".
	for i := 0; i < ranks; i++ {
		if err := c.FailNode(i); err != nil {
			t.Fatal(err)
		}
	}
	_, err = c.RestartLine(context.Background())
	if !errors.Is(err, ErrLevelUnavailable) {
		t.Errorf("RestartLine error = %v, want ErrLevelUnavailable", err)
	}
	if errors.Is(err, ErrNoRestartLine) {
		t.Error("transport outage still reported as ErrNoRestartLine")
	}
	if _, err := c.Recover(context.Background(), RecoverOptions{}); !errors.Is(err, ErrLevelUnavailable) {
		t.Errorf("Recover error = %v, want ErrLevelUnavailable", err)
	}

	// Once the store is reachable again and really empty, the verdict
	// flips back to the honest ErrNoRestartLine.
	store.tripped.Store(false)
	if _, err := c.RestartLine(context.Background()); !errors.Is(err, ErrNoRestartLine) {
		t.Errorf("empty reachable store: error = %v, want ErrNoRestartLine", err)
	}
}
