package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
)

// layer is one module on a checkpoint's trip, outermost first. The
// gateway layer's self time also holds the node, nvm and ndp work that
// runs inside the gateway process between the wrapped boundaries; those
// layers are read from the gateway's metrics registry instead.
type layer uint8

const (
	layerGateway layer = iota
	layerCompress
	layerShardstore
	layerIOD
	layerIOStore
	numLayers
)

var layerNames = [numLayers]string{"gateway", "compress", "shardstore", "iod", "iostore"}

// span is one call across a layer boundary the benchmark constructs.
type span struct {
	Layer   layer
	Op      string
	Key     iostore.Key
	Seq     uint64 // compress spans: the save stamped into the block
	Backend int    // iod/iostore spans: backend index, else -1
	Block   int    // block ops: block index, else -1
	Start   int64  // ns since the tracer's epoch
	End     int64
	Bytes   int64 // payload bytes in (writes, compress) or out (reads)
	Out     int64 // compress spans: compressed bytes
	Err     bool
}

// root is one client operation: the trip the layer self times partition.
type root struct {
	Kind  string // save, async, load or delete
	Key   iostore.Key
	Seq   uint64 // saves: the stamped save sequence
	Start int64
	End   int64
	Err   bool
}

// tracer keeps spans in memory while on; they are analyzed and written
// out when the run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	since atomic.Int64

	mu    sync.Mutex
	spans []span
	roots []root
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the time since the epoch; 0 on an untraced run's nil tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// enable starts recording; spans that began earlier are dropped.
func (t *tracer) enable() {
	t.since.Store(t.now())
	t.on.Store(true)
}

func (t *tracer) disable() { t.on.Store(false) }

func (t *tracer) add(s span) {
	if t == nil || !t.on.Load() || s.Start < t.since.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) addRoot(r root) {
	if t == nil || !t.on.Load() || r.Start < t.since.Load() {
		return
	}
	t.mu.Lock()
	t.roots = append(t.roots, r)
	t.mu.Unlock()
}

// tracedBackend wraps one iostore.Backend boundary: the shard tier as the
// gateway sees it, an iod client as the shard tier sees it, or a backing
// store as an iod server sees it.
type tracedBackend struct {
	inner   iostore.Backend
	tr      *tracer
	layer   layer
	backend int
}

func (b *tracedBackend) rec(op string, key iostore.Key, block int, t0 int64, n int, err error) {
	b.tr.add(span{Layer: b.layer, Op: op, Key: key, Backend: b.backend, Block: block,
		Start: t0, End: b.tr.now(), Bytes: int64(n), Err: err != nil})
}

// Instrument forwards to the wrapped backend, so wrapping does not hide
// its metrics from the node or iod server that registers them.
func (b *tracedBackend) Instrument(r *metrics.Registry) {
	if in, ok := b.inner.(interface{ Instrument(*metrics.Registry) }); ok {
		in.Instrument(r)
	}
}

func (b *tracedBackend) Put(ctx context.Context, o iostore.Object) error {
	t0 := b.tr.now()
	err := b.inner.Put(ctx, o)
	b.rec("put", o.Key, -1, t0, int(o.StoredSize()), err)
	return err
}

func (b *tracedBackend) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	t0 := b.tr.now()
	err := b.inner.PutBlock(ctx, key, meta, index, block)
	b.rec("put_block", key, index, t0, len(block), err)
	return err
}

func (b *tracedBackend) Get(ctx context.Context, key iostore.Key) (iostore.Object, error) {
	t0 := b.tr.now()
	o, err := b.inner.Get(ctx, key)
	b.rec("get", key, -1, t0, int(o.StoredSize()), err)
	return o, err
}

func (b *tracedBackend) Delete(ctx context.Context, key iostore.Key) error {
	t0 := b.tr.now()
	err := b.inner.Delete(ctx, key)
	b.rec("delete", key, -1, t0, 0, err)
	return err
}

func (b *tracedBackend) Stat(ctx context.Context, key iostore.Key) (iostore.Object, bool, error) {
	t0 := b.tr.now()
	o, ok, err := b.inner.Stat(ctx, key)
	b.rec("stat", key, -1, t0, 0, err)
	return o, ok, err
}

func (b *tracedBackend) IDs(ctx context.Context, job string, rank int) ([]uint64, error) {
	t0 := b.tr.now()
	ids, err := b.inner.IDs(ctx, job, rank)
	b.rec("ids", iostore.Key{Job: job, Rank: rank}, -1, t0, 0, err)
	return ids, err
}

func (b *tracedBackend) Latest(ctx context.Context, job string, rank int) (uint64, bool, error) {
	t0 := b.tr.now()
	id, ok, err := b.inner.Latest(ctx, job, rank)
	b.rec("latest", iostore.Key{Job: job, Rank: rank}, -1, t0, 0, err)
	return id, ok, err
}

func (b *tracedBackend) StatBlocks(ctx context.Context, key iostore.Key) (iostore.Object, int, bool, error) {
	t0 := b.tr.now()
	o, n, ok, err := b.inner.StatBlocks(ctx, key)
	b.rec("stat_blocks", key, -1, t0, 0, err)
	return o, n, ok, err
}

func (b *tracedBackend) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	t0 := b.tr.now()
	blk, err := b.inner.GetBlock(ctx, key, index)
	b.rec("get_block", key, index, t0, len(blk), err)
	return blk, err
}

func (b *tracedBackend) Keys(ctx context.Context) ([]iostore.Key, error) {
	t0 := b.tr.now()
	keys, err := b.inner.Keys(ctx)
	b.rec("keys", iostore.Key{}, -1, t0, 0, err)
	return keys, err
}

// tracedCodec wraps the drain codec. Compress calls carry no store key;
// the stamp at the head of each block names the save it came from.
type tracedCodec struct {
	inner compress.Codec
	tr    *tracer
}

func (c *tracedCodec) Name() string { return c.inner.Name() }
func (c *tracedCodec) Level() int   { return c.inner.Level() }

func (c *tracedCodec) Compress(dst, src []byte) ([]byte, error) {
	t0 := c.tr.now()
	out, err := c.inner.Compress(dst, src)
	seq, blk, _ := readStamp(src)
	c.tr.add(span{Layer: layerCompress, Op: "compress", Seq: seq, Backend: -1, Block: blk,
		Start: t0, End: c.tr.now(), Bytes: int64(len(src)), Out: int64(len(out) - len(dst)), Err: err != nil})
	return out, err
}

// Decompress is not on the gateway's paths: restores look their codec up
// by name inside the node.
func (c *tracedCodec) Decompress(dst, src []byte) ([]byte, error) {
	return c.inner.Decompress(dst, src)
}

// node is one span in an analyzed trip tree. Index -1 is the root.
type node struct {
	layer    layer
	start    int64
	end      int64
	children []int
}

// selfTimes partitions a trip [start, end] among the layers of its span
// tree. Each instant goes to the innermost spans active at it — spans
// none of whose children are active then — split evenly when several are
// (an R=2 fan-out, windowed sends overlapping compression). Spans are
// clipped to the trip, so the layer self times sum to the trip exactly.
// A single span's self time under this rule is its duration minus the
// part of it its children cover, whenever no sibling overlaps it.
func selfTimes(nodes []node, rootIdx int) [numLayers]float64 {
	var out [numLayers]float64
	r := nodes[rootIdx]
	lo, hi := r.start, r.end
	type iv struct{ s, e int64 }
	clip := make([]iv, len(nodes))
	var cuts []int64
	for i, n := range nodes {
		s, e := n.start, n.end
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e < s {
			e = s
		}
		clip[i] = iv{s, e}
		cuts = append(cuts, s, e)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	active := func(i int, a, b int64) bool { return clip[i].s <= a && clip[i].e >= b && clip[i].e > clip[i].s }
	var inner []int
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if b <= a {
			continue
		}
		inner = inner[:0]
		var walk func(i int)
		walk = func(i int) {
			childActive := false
			for _, c := range nodes[i].children {
				if active(c, a, b) {
					childActive = true
					walk(c)
				}
			}
			if !childActive {
				inner = append(inner, i)
			}
		}
		walk(rootIdx)
		share := float64(b-a) / float64(len(inner))
		for _, i := range inner {
			out[nodes[i].layer] += share
		}
	}
	return out
}
