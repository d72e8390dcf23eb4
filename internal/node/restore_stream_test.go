package node

import (
	"bytes"
	"context"
	"testing"

	"ndpcr/internal/compress"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// plainStore hides the block-read path of the wrapped store: StatBlocks
// declines every key, so a restore through it takes the monolithic
// whole-object fallback — what a store predating block streaming looked
// like.
type plainStore struct{ inner iostore.Backend }

func (p plainStore) Put(ctx context.Context, o iostore.Object) error { return p.inner.Put(ctx, o) }
func (p plainStore) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	return p.inner.PutBlock(ctx, key, meta, index, block)
}
func (p plainStore) Delete(ctx context.Context, key iostore.Key) error {
	return p.inner.Delete(ctx, key)
}
func (p plainStore) Get(ctx context.Context, key iostore.Key) (iostore.Object, error) {
	return p.inner.Get(ctx, key)
}
func (p plainStore) Stat(ctx context.Context, key iostore.Key) (iostore.Object, bool, error) {
	return p.inner.Stat(ctx, key)
}
func (p plainStore) IDs(ctx context.Context, job string, rank int) ([]uint64, error) {
	return p.inner.IDs(ctx, job, rank)
}
func (p plainStore) Latest(ctx context.Context, job string, rank int) (uint64, bool, error) {
	return p.inner.Latest(ctx, job, rank)
}
func (p plainStore) Keys(ctx context.Context) ([]iostore.Key, error) { return p.inner.Keys(ctx) }
func (p plainStore) StatBlocks(ctx context.Context, key iostore.Key) (iostore.Object, int, bool, error) {
	return iostore.Object{}, 0, false, nil
}
func (p plainStore) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	return nil, iostore.ErrNotFound
}

func TestStreamedRestoreMatchesWholeObject(t *testing.T) {
	// The streamed restore (StatBlocks + per-block GetBlock feeding the
	// decompression pool) must reproduce exactly what the monolithic
	// whole-object fetch reproduces — same store, same checkpoint, one
	// node seeing BlockReader and one with it hidden.
	gz, _ := compress.Lookup("gzip", 1)
	n, store := newNode(t, func(c *Config) { c.Codec = gz })
	snap := snapshot(300_000, 7)
	id, err := n.Commit(context.Background(), snap, Metadata{Step: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, n, id)
	n.FailLocal()

	got, meta, level, err := n.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if level != LevelIO || meta.Step != 3 || !bytes.Equal(got, snap) {
		t.Errorf("streamed restore: level=%v step=%d match=%v", level, meta.Step, bytes.Equal(got, snap))
	}
	if v := n.Metrics().Counter("ndpcr_node_streamed_restores_total", "").Value(); v == 0 {
		t.Error("restore did not take the streamed path despite a BlockReader store")
	}

	// Same store with BlockReader hidden: the fallback must produce the
	// identical snapshot and never count a streamed restore.
	n2, err := New(Config{Job: "job", Rank: 0, Store: plainStore{store}, DisableNDP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	got2, meta2, level2, err := n2.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if level2 != LevelIO || meta2.Step != 3 || !bytes.Equal(got2, snap) {
		t.Error("fallback restore diverged from streamed restore")
	}
	if v := n2.Metrics().Counter("ndpcr_node_streamed_restores_total", "").Value(); v != 0 {
		t.Errorf("fallback restore counted as streamed (%v)", v)
	}
}

func TestStreamedRestoreSmallPrefetchWindow(t *testing.T) {
	// A prefetch window smaller than the block count must still reassemble
	// correctly — the bound throttles, it must not truncate.
	gz, _ := compress.Lookup("gzip", 1)
	n, _ := newNode(t, func(c *Config) {
		c.Codec = gz
		c.PrefetchBlocks = 1
		c.RestoreWorkers = 2
	})
	snap := snapshot(200_000, 9) // ~49 blocks at 4096
	id, err := n.Commit(context.Background(), snap, Metadata{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, n, id)
	n.FailLocal()
	got, _, _, err := n.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, snap) {
		t.Error("window=1 streamed restore corrupted the snapshot")
	}
}

func TestFailedRestoreDiscardsTimeline(t *testing.T) {
	// Regression: a failed restore used to leave its timeline open forever
	// (Finish runs only on success, and DiscardOlder never fires for IDs
	// that never finish), so chaos runs with fallbacks accumulated
	// unbounded open-timeline residue. Failure paths must finish-or-discard.
	n, store := newNode(t, func(c *Config) { c.DisableNDP = true })
	key := iostore.Key{Job: "job", Rank: 0, ID: 5}
	obj := iostore.Object{
		Key:        key,
		Codec:      "gzip",
		CodecLevel: 1,
		OrigSize:   100,
		Blocks:     [][]byte{[]byte("this is not a gzip stream")},
		Meta:       Metadata{Job: "job", Rank: 0, Step: 2}.toMap(5),
	}
	if err := store.Put(context.Background(), obj); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := n.RestoreID(context.Background(), 5); err == nil {
		t.Fatal("corrupt checkpoint restored successfully")
	}
	if open := n.Timelines().Open(metrics.KindRestore); open != 0 {
		t.Errorf("failed restore leaked %d open restore timeline(s)", open)
	}
	// A later, successful restore of a good checkpoint must be unaffected.
	good := iostore.Key{Job: "job", Rank: 0, ID: 6}
	if err := store.Put(context.Background(), iostore.Object{
		Key:      good,
		OrigSize: 4,
		Blocks:   [][]byte{[]byte("fine")},
		Meta:     Metadata{Job: "job", Rank: 0, Step: 3}.toMap(6),
	}); err != nil {
		t.Fatal(err)
	}
	data, _, _, err := n.RestoreID(context.Background(), 6)
	if err != nil || string(data) != "fine" {
		t.Fatalf("good restore after failed one: %q, %v", data, err)
	}
	if open := n.Timelines().Open(metrics.KindRestore); open != 0 {
		t.Errorf("%d restore timeline(s) still open after a finished restore", open)
	}
}

func TestSetPartnerRejectsSelf(t *testing.T) {
	// A node buddying with itself would store its "redundant" copies on
	// the same NVM the partner level exists to survive losing.
	store := iostore.New(nvm.Pacer{})
	a, err := New(Config{Job: "j", Rank: 0, Store: store, DisableNDP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Job: "j", Rank: 1, Store: store, DisableNDP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.SetPartner(a); err == nil {
		t.Error("self-partnering accepted: phantom redundancy on the same device")
	}
	if err := a.SetPartner(b); err != nil {
		t.Errorf("distinct buddy rejected: %v", err)
	}
	if err := a.SetPartner(nil); err != nil {
		t.Errorf("unwiring rejected: %v", err)
	}
}
