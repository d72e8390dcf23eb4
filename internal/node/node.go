// Package node implements the compute-node checkpoint/restart runtime of
// §4: a host API that commits application snapshots to node-local NVM
// (pausing any NDP activity for the duration, §4.2.1), an NDP engine that
// drains them to global I/O with overlapped compression (§4.2.2), and a
// two-path restore — local NVM when available, otherwise a streamed fetch
// from global I/O with pipelined host-side decompression (§4.3).
package node

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/delta"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nic"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/units"
)

// Metadata is the BLCR-style identification attached to every checkpoint
// (§4.2.1): enough to find the latest checkpoint of an application rank
// after a restart.
type Metadata struct {
	Job  string
	Rank int
	// Step is the application's own progress marker (iteration count).
	Step int
	// Shards is the shard count of a partitionable snapshot (the elastic
	// frame's header count, stamped at checkpoint time). Zero means the
	// snapshot is opaque — restorable only onto the same rank topology.
	// Carrying the count in metadata lets the elastic restore planner size
	// an N→M re-shard from Stat calls alone, without fetching payloads.
	Shards int
}

func (m Metadata) toMap(id uint64) map[string]string {
	mm := map[string]string{
		"job":  m.Job,
		"rank": strconv.Itoa(m.Rank),
		"step": strconv.Itoa(m.Step),
		"ckpt": strconv.FormatUint(id, 10),
	}
	if m.Shards > 0 {
		mm["shards"] = strconv.Itoa(m.Shards)
	}
	return mm
}

// ErrBadMetadata reports checkpoint metadata that fails to decode. Corrupt
// metadata must never silently decode as rank 0 / step 0: a restore acting
// on it could resurrect the wrong rank's state.
var ErrBadMetadata = errors.New("node: corrupt checkpoint metadata")

func metadataFrom(mm map[string]string) (Metadata, error) {
	var m Metadata
	var err error
	m.Job = mm["job"]
	if m.Rank, err = strconv.Atoi(mm["rank"]); err != nil {
		return Metadata{}, fmt.Errorf("%w: rank %q: %v", ErrBadMetadata, mm["rank"], err)
	}
	if m.Step, err = strconv.Atoi(mm["step"]); err != nil {
		return Metadata{}, fmt.Errorf("%w: step %q: %v", ErrBadMetadata, mm["step"], err)
	}
	// "shards" is optional (pre-elastic checkpoints omit it) but must parse
	// when present: a garbled count would mis-plan every elastic restore.
	if s, ok := mm["shards"]; ok {
		if m.Shards, err = strconv.Atoi(s); err != nil || m.Shards < 0 {
			return Metadata{}, fmt.Errorf("%w: shards %q", ErrBadMetadata, s)
		}
	}
	return m, nil
}

// MetadataFromMap decodes a store meta map into Metadata — the exported
// form the restore planner uses to read shard counts off Stat results.
func MetadataFromMap(mm map[string]string) (Metadata, error) { return metadataFrom(mm) }

// Config assembles a node.
type Config struct {
	Job  string
	Rank int

	// NVMCapacity bounds the local checkpoint region. Zero selects
	// 4 GiB (enough for tests; real deployments size it to hold a few
	// checkpoints).
	NVMCapacity int64
	// NVMBandwidth paces local commits; zero disables pacing.
	NVMBandwidth units.Bandwidth
	// Sleep is the pacing sleep hook shared by all paced devices; nil
	// performs no real delay (durations are still modeled).
	Sleep func(units.Seconds)

	// Store is the shared global I/O store (required): in-process
	// (iostore.Store), remote (iod.Client), or sharded+replicated
	// (shardstore.Store). Its owner instruments it: the node never does,
	// because a store shared by many nodes must not have its metric
	// fields rebound while other nodes' drains read them.
	Store iostore.Backend

	// Codec enables NDP compression of drained checkpoints; nil drains
	// raw.
	Codec compress.Codec
	// NDPWorkers is the NDP core count for compression (default 4, the
	// paper's gzip(1) configuration).
	NDPWorkers int
	// BlockSize is the drain streaming unit (default 1 MB).
	BlockSize int
	// RestoreWorkers sizes the host-side decompression pool on restore
	// (default 8; the paper fans blocks out across host cores, §4.3).
	RestoreWorkers int
	// PrefetchBlocks bounds how many fetched-but-not-yet-consumed blocks a
	// streamed restore keeps in flight (default 2×RestoreWorkers): it is
	// both the block-fetch parallelism and the memory bound on the
	// fetch→decompress pipeline. When the store declines block reads for
	// a key (StatBlocks ok == false), restores fall back to a
	// whole-object fetch.
	PrefetchBlocks int
	// DrainWindow bounds how many store writes an NDP drain keeps in
	// flight at once (default 4; see ndp.Config.SendWindow). 1 restores
	// the fully serial sender.
	DrainWindow int
	// SerializeDrain disables the compress/send overlap (ablation).
	SerializeDrain bool
	// Incremental enables block-level incremental drains: after a full
	// checkpoint reaches I/O, the NDP ships only changed blocks, with a
	// full checkpoint every FullEvery drains (the paper conclusion's
	// proposed NDP extension).
	Incremental bool
	// FullEvery bounds incremental patch chains (default 8).
	FullEvery int
	// DeltaBlockSize is the incremental-dedup granularity (default 64 KiB).
	DeltaBlockSize int
	// DisableNDP turns the background drain off entirely: checkpoints
	// reach I/O only via explicit host writes (the conventional
	// multilevel baseline).
	DisableNDP bool
	// MaxDrainAttempts bounds automatic NDP drain retries; after N
	// failures the checkpoint is permanently failed on the durability
	// tracker instead of blocking async waiters forever. Zero keeps the
	// legacy no-auto-retry behavior (see ndp.Config.MaxDrainAttempts).
	MaxDrainAttempts int
	// DrainRetryBackoff is the base delay between automatic drain retries
	// (default 50ms).
	DrainRetryBackoff time.Duration
	// DrainGate, when non-nil, is acquired around every NDP drain — the
	// gateway's QoS-weighted drain scheduler plugs in here (see
	// ndp.Config.Gate).
	DrainGate func(ctx context.Context) (release func(), err error)
	// NICBuffer is the NIC transmit buffer size (default 8 MB).
	NICBuffer int
	// NICBandwidth paces the NIC link; zero disables pacing.
	NICBandwidth units.Bandwidth

	// OnError receives asynchronous NDP errors.
	OnError func(error)

	// Metrics, when non-nil, is the registry every layer of this node
	// (NVM, NIC, NDP, restores) reports into; cluster passes one registry
	// to all its nodes so per-node series aggregate. Nil creates a private
	// registry, exposed via Node.Metrics.
	Metrics *metrics.Registry
	// Timelines, when non-nil, collects per-checkpoint phase timelines.
	// Nil creates a private set, exposed via Node.Timelines.
	Timelines *metrics.TimelineSet
}

// Node is one compute node's C/R runtime. All methods are safe for
// concurrent use, though an application typically serializes Commit and
// Restore itself.
type Node struct {
	cfg    Config
	device *nvm.Device
	link   *nic.Link
	engine *ndp.Engine // nil when DisableNDP

	// dur is the per-node durability state machine: commit marks LevelNVM,
	// the NDP engine marks LevelStore as drains land, and the cluster's
	// propagation marks the partner/erasure levels. The node owns it and
	// closes it after the engine.
	dur *ndp.Tracker

	// partner is this node's region for *other* ranks' redundant copies;
	// buddy is the node holding *this* rank's copies (§3.4 partner level).
	partner partnerRegion
	buddy   *Node

	// erasure is this node's region for other ranks' erasure shards;
	// eraSet is the cluster's shard router serving *this* rank's
	// reconstructions (§3.4 erasure-set level).
	erasure erasureRegion
	eraSet  ErasureSet

	// commitMu serializes Commit's reserve-ID → NVM-write → confirm
	// sequence so a failed NVM Put never burns a checkpoint ID (the ID is
	// only consumed once the write succeeded).
	commitMu sync.Mutex

	mu     sync.Mutex
	nextID uint64
	closed bool

	reg       *metrics.Registry
	timelines *metrics.TimelineSet

	mCommits          *metrics.Counter
	mCommitSecs       *metrics.Histogram
	mCommitBytes      *metrics.Histogram
	mMetaErrs         *metrics.Counter
	mRestoreSecs      *metrics.Histogram
	mDecompressSecs   *metrics.Histogram
	mStreamedRestores *metrics.Counter
	mRestores         [LevelIO + 1]*metrics.Counter
}

// New assembles and starts a node runtime.
func New(cfg Config) (*Node, error) {
	if cfg.Store == nil {
		return nil, errors.New("node: Store is required")
	}
	if cfg.Job == "" {
		return nil, errors.New("node: Job is required")
	}
	if cfg.NVMCapacity == 0 {
		cfg.NVMCapacity = 4 << 30
	}
	if cfg.NDPWorkers == 0 {
		cfg.NDPWorkers = 4
	}
	if cfg.RestoreWorkers <= 0 {
		cfg.RestoreWorkers = 8
	}
	if cfg.PrefetchBlocks <= 0 {
		cfg.PrefetchBlocks = 2 * cfg.RestoreWorkers
	}
	if cfg.NICBuffer == 0 {
		cfg.NICBuffer = 8 << 20
	}

	device, err := nvm.NewDevice(cfg.NVMCapacity, nvm.Pacer{Bandwidth: cfg.NVMBandwidth, Sleep: cfg.Sleep})
	if err != nil {
		return nil, err
	}
	link, err := nic.NewLink(cfg.NICBuffer, nvm.Pacer{Bandwidth: cfg.NICBandwidth, Sleep: cfg.Sleep})
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, device: device, link: link, nextID: 1, dur: ndp.NewTracker()}
	n.reg = cfg.Metrics
	if n.reg == nil {
		n.reg = metrics.NewRegistry()
	}
	n.timelines = cfg.Timelines
	if n.timelines == nil {
		n.timelines = metrics.NewTimelineSet(0)
	}
	device.Instrument(n.reg)
	link.Instrument(n.reg)
	n.dur.Instrument(n.reg)
	n.mCommits = n.reg.Counter("ndpcr_node_commits_total", "snapshots committed to local NVM")
	n.mCommitSecs = n.reg.Histogram("ndpcr_node_commit_seconds", "host pause per NVM commit", metrics.UnitSeconds)
	n.mCommitBytes = n.reg.Histogram("ndpcr_node_commit_bytes", "snapshot sizes committed", metrics.UnitBytes)
	n.mMetaErrs = n.reg.Counter("ndpcr_node_metadata_errors_total", "checkpoints rejected for corrupt metadata")
	n.mRestoreSecs = n.reg.Histogram("ndpcr_node_restore_seconds", "wall time per restore", metrics.UnitSeconds)
	n.mDecompressSecs = n.reg.Histogram("ndpcr_node_decompress_seconds", "busy time per restored block decompression", metrics.UnitSeconds)
	n.mStreamedRestores = n.reg.Counter("ndpcr_node_streamed_restores_total",
		"I/O fetches served block-streamed (fetch overlapped with decompress)")
	for l := LevelNone; l <= LevelIO; l++ {
		n.mRestores[l] = n.reg.Counter(
			fmt.Sprintf("ndpcr_node_restores_total{level=%q}", l),
			"restores served, by storage level (none = failed)")
	}
	if !cfg.DisableNDP {
		n.engine, err = ndp.New(ndp.Config{
			Job:               cfg.Job,
			Rank:              cfg.Rank,
			Device:            device,
			Store:             cfg.Store,
			Link:              link,
			Codec:             cfg.Codec,
			Workers:           cfg.NDPWorkers,
			BlockSize:         cfg.BlockSize,
			Serialize:         cfg.SerializeDrain,
			SendWindow:        cfg.DrainWindow,
			Incremental:       cfg.Incremental,
			FullEvery:         cfg.FullEvery,
			DeltaBlockSize:    cfg.DeltaBlockSize,
			OnError:           cfg.OnError,
			Tracker:           n.dur,
			Gate:              cfg.DrainGate,
			MaxDrainAttempts:  cfg.MaxDrainAttempts,
			DrainRetryBackoff: cfg.DrainRetryBackoff,
			Metrics:           n.reg,
			Timelines:         n.timelines,
		})
		if err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Device exposes the NVM device (tests, metrics).
func (n *Node) Device() *nvm.Device { return n.device }

// Engine exposes the NDP engine, nil when disabled.
func (n *Node) Engine() *ndp.Engine { return n.engine }

// Durability exposes the node's durability tracker: per-level watermarks,
// per-ID failure state, and awaitable completion — the one wait primitive
// for every level above the commit's NVM ack.
func (n *Node) Durability() *ndp.Tracker { return n.dur }

// DurableAt reports whether checkpoint id is durable at the given level
// ("id or newer" watermark semantics; failed IDs are never durable).
func (n *Node) DurableAt(id uint64, level ndp.Level) bool {
	return n.dur.DurableAt(id, level)
}

// WaitDurableCtx blocks until checkpoint id is durable at level, the ID
// permanently fails (error wraps ndp.ErrCheckpointFailed), ctx ends, or
// the node shuts down (ndp.ErrStopped).
func (n *Node) WaitDurableCtx(ctx context.Context, id uint64, level ndp.Level) error {
	return n.dur.WaitDurableCtx(ctx, id, level)
}

// Metrics exposes the node's metric registry.
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// Timelines exposes the node's per-checkpoint phase timelines.
func (n *Node) Timelines() *metrics.TimelineSet { return n.timelines }

// Commit writes one application snapshot to local NVM and notifies the
// NDP. The host "pauses" for the NVM write — any concurrent NDP NVM access
// is excluded for the duration (§4.2.1). It returns the checkpoint ID as
// soon as the write lands: the commit acks at ndp.LevelNVM, and the NDP
// carries the checkpoint to the higher levels in the background — await
// any of them with WaitDurableCtx.
//
// Admission control replaces ErrFull: when NVM occupancy minus
// drain-locked residents cannot admit the snapshot, the commit blocks until
// drains release space or ctx ends, the latter surfacing a typed
// nvm.ErrBackpressure.
//
// The ID is reserved only once the NVM write succeeds: a failed Commit
// leaves nextID untouched, so the same ID is offered again on retry and a
// single rank's NVM failure cannot desynchronize a coordinated checkpoint's
// ID sequence.
func (n *Node) Commit(ctx context.Context, snapshot []byte, meta Metadata) (uint64, error) {
	n.commitMu.Lock()
	defer n.commitMu.Unlock()
	id, ok := n.reserveID()
	if !ok {
		return 0, errors.New("node: closed")
	}
	if meta.Job == "" {
		meta.Job = n.cfg.Job
		meta.Rank = n.cfg.Rank
	}
	start := time.Now()
	for {
		// Admission is checked without holding the NVM pause gate: a drain
		// needs gate read access to make progress, and its progress is what
		// frees the space being waited for.
		if err := n.device.WaitAdmit(ctx, int64(len(snapshot))); err != nil {
			return 0, fmt.Errorf("node: commit %d: %w", id, err)
		}
		err := n.putNVM(id, snapshot, meta)
		if err == nil {
			break
		}
		if !errors.Is(err, nvm.ErrFull) {
			return 0, fmt.Errorf("node: commit %d: %w", id, err)
		}
		// A drain locked a new resident between the admission check and
		// the write; WaitAdmit sees the changed state and parks again.
	}
	n.mu.Lock()
	n.nextID = id + 1
	n.mu.Unlock()
	n.dur.MarkDurable(ndp.LevelNVM, id)
	n.timelines.Observe(metrics.KindCheckpoint, id, metrics.PhaseCommit, start, time.Now())
	n.mCommits.Inc()
	n.mCommitSecs.ObserveSince(start)
	n.mCommitBytes.Observe(int64(len(snapshot)))
	if n.engine != nil {
		n.engine.Notify()
	}
	return id, nil
}

// reserveID returns the ID the commit will use without consuming it (a
// failed NVM write must not burn an ID); ok is false on a closed node.
func (n *Node) reserveID() (uint64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return 0, false
	}
	return n.nextID, true
}

// putNVM performs the paused NVM write (§4.2.1: the host gets the full
// device bandwidth; concurrent NDP reads are excluded).
func (n *Node) putNVM(id uint64, snapshot []byte, meta Metadata) error {
	if n.engine != nil {
		n.engine.PauseNVM()
		defer n.engine.ResumeNVM()
	}
	return n.device.Put(nvm.Checkpoint{ID: id, Data: snapshot, Meta: meta.toMap(id)})
}

// NextID returns the checkpoint ID the next successful Commit will use.
func (n *Node) NextID() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nextID
}

// ResyncNextID raises the node's checkpoint counter to next (never lowers
// it). The cluster calls it on every node after an aborted coordinated
// checkpoint so the surviving ranks and the failed rank agree again on the
// next global ID — the aborted ID is skipped, keeping IDs monotonic and
// never reusing a poisoned one.
func (n *Node) ResyncNextID(next uint64) {
	n.commitMu.Lock()
	defer n.commitMu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	if next > n.nextID {
		n.nextID = next
	}
}

// DiscardCommit rolls one committed checkpoint back out of this node: the
// NDP is told never to acknowledge a drain of the ID (deleting anything it
// already shipped), the NVM entry is force-removed, and the global object
// is deleted. It is the per-node abort path of a failed coordinated
// checkpoint; discarding an ID that was never committed here is a no-op.
// The returned error reports a failed global delete — a leaked object the
// caller can now see (and a cluster rollback counts).
func (n *Node) DiscardCommit(id uint64) error {
	if n.engine != nil {
		n.engine.Discard(id) // also fails the ID on the shared tracker
	} else {
		n.dur.Fail(id, ndp.ErrDiscarded)
	}
	n.device.Discard(id)
	return n.cfg.Store.Delete(context.Background(),
		iostore.Key{Job: n.cfg.Job, Rank: n.cfg.Rank, ID: id})
}

// WriteThrough writes a committed checkpoint to global I/O from the host —
// the conventional multilevel path used when the NDP is disabled. It
// blocks for the full (uncompressed) transfer.
func (n *Node) WriteThrough(ctx context.Context, id uint64) error {
	ckpt, err := n.device.Get(id)
	if err != nil {
		return fmt.Errorf("node: write-through %d: %w", id, err)
	}
	obj := iostore.Object{
		Key:      iostore.Key{Job: n.cfg.Job, Rank: n.cfg.Rank, ID: id},
		OrigSize: int64(len(ckpt.Data)),
		Blocks:   [][]byte{ckpt.Data},
		Meta:     ckpt.Meta,
	}
	if err := n.cfg.Store.Put(ctx, obj); err != nil {
		return err
	}
	n.dur.MarkDurable(ndp.LevelStore, id)
	return nil
}

// ErrNoCheckpoint reports that neither level holds a restorable checkpoint.
var ErrNoCheckpoint = errors.New("node: no checkpoint available at any level")

// Restore returns the newest restorable snapshot, walking the §4.2.3
// recovery hierarchy: local NVM, then the buddy node's partner copy
// (§3.4), then the erasure set, then global I/O with pipelined host
// decompression (§4.3). It reports which level served the restore. The
// context bounds the global-I/O leg (fetches, shard failover, reconnect
// backoff).
func (n *Node) Restore(ctx context.Context) ([]byte, Metadata, Level, error) {
	start := time.Now()
	data, meta, level, err := n.restore(ctx)
	n.recordRestore(level, start, err)
	return data, meta, level, err
}

func (n *Node) restore(ctx context.Context) ([]byte, Metadata, Level, error) {
	if ckpt, ok := n.device.Latest(); ok {
		// Local path: one paced NVM read.
		t0 := time.Now()
		data, err := n.device.Get(ckpt.ID)
		if err == nil {
			meta, merr := metadataFrom(data.Meta)
			if merr == nil {
				n.restoreSpan(ckpt.ID, metrics.PhaseFetch, t0)
				n.timelines.Finish(metrics.KindRestore, ckpt.ID)
				return data.Data, meta, LevelLocal, nil
			}
			// Corrupt local metadata is a level miss, not a wrong-rank
			// restore: fall through the hierarchy.
			n.mMetaErrs.Inc()
		}
	}
	// Pick the newest checkpoint across the partner, erasure, and I/O
	// levels; on ties prefer the cheaper level (partner, then erasure).
	var pLatest uint64
	pOK := false
	n.mu.Lock()
	buddy := n.buddy
	n.mu.Unlock()
	if buddy != nil {
		if ids := buddy.PartnerCopyIDs(n.cfg.Rank); len(ids) > 0 {
			pLatest, pOK = ids[len(ids)-1], true
		}
	}
	eLatest, eOK := n.erasureLatest()
	// A transport error is not "no checkpoint stored": remember it, try the
	// cheaper levels, and only report the unreachable I/O level if nothing
	// else serves.
	ioLatest, ioOK, ioErr := n.cfg.Store.Latest(ctx, n.cfg.Job, n.cfg.Rank)
	if ioErr != nil {
		ioOK = false
	}
	if pOK && (!eOK || pLatest >= eLatest) && (!ioOK || pLatest >= ioLatest) {
		t0 := time.Now()
		if data, meta, ok := n.restoreFromPartner(pLatest); ok {
			n.restoreSpan(pLatest, metrics.PhaseFetch, t0)
			n.timelines.Finish(metrics.KindRestore, pLatest)
			return data, meta, LevelPartner, nil
		}
	}
	if eOK && (!ioOK || eLatest >= ioLatest) {
		t0 := time.Now()
		if data, meta, ok := n.restoreFromErasure(eLatest); ok {
			n.restoreSpan(eLatest, metrics.PhaseFetch, t0)
			n.timelines.Finish(metrics.KindRestore, eLatest)
			return data, meta, LevelErasure, nil
		}
	}
	if !ioOK {
		if ioErr != nil {
			return nil, Metadata{}, LevelNone, fmt.Errorf("%w (I/O level unreachable: %v)", ErrNoCheckpoint, ioErr)
		}
		return nil, Metadata{}, LevelNone, ErrNoCheckpoint
	}
	data, meta, err := n.fetchFromIO(ctx, n.cfg.Rank, ioLatest)
	if err != nil {
		return nil, Metadata{}, LevelNone, err
	}
	n.timelines.Finish(metrics.KindRestore, ioLatest)
	return data, meta, LevelIO, nil
}

// RestoreID restores a specific checkpoint ID: local, then partner, then
// the erasure set, then global I/O.
func (n *Node) RestoreID(ctx context.Context, id uint64) ([]byte, Metadata, Level, error) {
	start := time.Now()
	data, meta, level, err := n.restoreByID(ctx, id)
	n.recordRestore(level, start, err)
	return data, meta, level, err
}

func (n *Node) restoreByID(ctx context.Context, id uint64) ([]byte, Metadata, Level, error) {
	t0 := time.Now()
	if data, err := n.device.Get(id); err == nil {
		meta, merr := metadataFrom(data.Meta)
		if merr == nil {
			n.restoreSpan(id, metrics.PhaseFetch, t0)
			n.timelines.Finish(metrics.KindRestore, id)
			return data.Data, meta, LevelLocal, nil
		}
		// Fall through: corrupt local metadata is a level miss.
		n.mMetaErrs.Inc()
	}
	t0 = time.Now()
	if data, meta, ok := n.restoreFromPartner(id); ok {
		n.restoreSpan(id, metrics.PhaseFetch, t0)
		n.timelines.Finish(metrics.KindRestore, id)
		return data, meta, LevelPartner, nil
	}
	t0 = time.Now()
	if data, meta, ok := n.restoreFromErasure(id); ok {
		n.restoreSpan(id, metrics.PhaseFetch, t0)
		n.timelines.Finish(metrics.KindRestore, id)
		return data, meta, LevelErasure, nil
	}
	data, meta, err := n.fetchFromIO(ctx, n.cfg.Rank, id)
	if err != nil {
		return nil, Metadata{}, LevelNone, err
	}
	n.timelines.Finish(metrics.KindRestore, id)
	return data, meta, LevelIO, nil
}

// restoreSpan records one restore-path phase span ending now.
func (n *Node) restoreSpan(id uint64, phase metrics.Phase, start time.Time) {
	n.timelines.Observe(metrics.KindRestore, id, phase, start, time.Now())
}

// recordRestore updates the restore counters and latency histogram.
func (n *Node) recordRestore(level Level, start time.Time, err error) {
	if err != nil {
		level = LevelNone
	}
	n.mRestores[level].Inc()
	n.mRestoreSecs.ObserveSince(start)
}

// Level identifies which storage level served a restore.
type Level int

// Restore levels.
const (
	LevelNone Level = iota
	LevelLocal
	LevelPartner
	LevelErasure
	LevelIO
)

func (l Level) String() string {
	switch l {
	case LevelLocal:
		return "local"
	case LevelPartner:
		return "partner"
	case LevelErasure:
		return "erasure"
	case LevelIO:
		return "io"
	}
	return "none"
}

// fetchFromIO streams rank's checkpoint from the global store (usually
// this node's own rank; an elastic restore fetches other source ranks'
// objects through the same path), decompressing across a host worker pool
// and, for incremental objects, walking the patch chain back to its full
// base and replaying it forward.
//
// Finish-or-discard: a failed fetch discards the restore timeline it
// opened. The success paths Finish it (in the callers); without the
// discard, every failed restore left an open timeline behind forever —
// residue that DiscardOlder never collects, since failures don't advance
// the finished-ID watermark.
func (n *Node) fetchFromIO(ctx context.Context, rank int, id uint64) (_ []byte, _ Metadata, err error) {
	defer func() {
		if err != nil {
			n.timelines.Discard(metrics.KindRestore, id)
		}
	}()
	var patches []*delta.Patch
	var meta Metadata
	curID := id
	for depth := 0; ; depth++ {
		if depth > maxPatchChain {
			return nil, Metadata{}, fmt.Errorf(
				"node: restore %d: patch chain exceeds %d links", id, maxPatchChain)
		}
		payload, m, base, err := n.fetchObject(ctx, rank, id, curID)
		if err != nil {
			return nil, Metadata{}, err
		}
		if depth == 0 {
			meta = m // the requested checkpoint's metadata wins
		}
		if base == 0 {
			// Full checkpoint: replay the collected patches (newest was
			// appended first, so walk backwards).
			applyStart := time.Now()
			data := payload
			for i := len(patches) - 1; i >= 0; i-- {
				data, err = delta.Apply(data, patches[i])
				if err != nil {
					return nil, Metadata{}, fmt.Errorf("node: restore %d: %w", id, err)
				}
			}
			n.restoreSpan(id, metrics.PhaseApply, applyStart)
			return data, meta, nil
		}
		p, err := delta.Decode(payload)
		if err != nil {
			return nil, Metadata{}, fmt.Errorf("node: restore %d: %w", id, err)
		}
		patches = append(patches, p)
		curID = base
	}
}

// maxPatchChain bounds incremental-restore recursion against corrupt
// metadata cycles.
const maxPatchChain = 1024

// fetchObject retrieves one object's decompressed payload plus its
// metadata and delta base (0 for full checkpoints). traceID keys the
// restore timeline (the originally requested checkpoint), while id is the
// patch-chain link being fetched. The streamed path (fetch overlapped with
// decompression) is tried first; a store that declines block reads for the
// key (StatBlocks ok == false) gets the monolithic whole-object fetch.
func (n *Node) fetchObject(ctx context.Context, rank int, traceID, id uint64) ([]byte, Metadata, uint64, error) {
	if out, meta, base, handled, err := n.fetchObjectStreamed(ctx, rank, traceID, id); handled {
		if err == nil {
			n.mStreamedRestores.Inc()
		}
		return out, meta, base, err
	}
	fetchStart := time.Now()
	key := iostore.Key{Job: n.cfg.Job, Rank: rank, ID: id}
	obj, err := n.cfg.Store.Get(ctx, key)
	if err != nil {
		return nil, Metadata{}, 0, fmt.Errorf("node: restore %d from I/O: %w", id, err)
	}
	n.restoreSpan(traceID, metrics.PhaseFetch, fetchStart)
	meta, err := metadataFrom(obj.Meta)
	if err != nil {
		n.mMetaErrs.Inc()
		return nil, Metadata{}, 0, fmt.Errorf("node: restore %d: %w", id, err)
	}
	if obj.Codec == "" {
		out := make([]byte, 0, obj.OrigSize)
		for _, b := range obj.Blocks {
			out = append(out, b...)
		}
		return out, meta, obj.DeltaBase, nil
	}
	codec, err := compress.Lookup(obj.Codec, obj.CodecLevel)
	if err != nil {
		return nil, Metadata{}, 0, fmt.Errorf("node: restore %d: %w", id, err)
	}
	// Pipelined host decompression: each block to a different core (§4.3).
	decompressStart := time.Now()
	plain := make([][]byte, len(obj.Blocks))
	errs := make([]error, len(obj.Blocks))
	idx := make(chan int)
	var wg sync.WaitGroup
	workers := n.cfg.RestoreWorkers
	if workers > len(obj.Blocks) {
		workers = len(obj.Blocks)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t0 := time.Now()
				plain[i], errs[i] = codec.Decompress(nil, obj.Blocks[i])
				n.mDecompressSecs.ObserveSince(t0)
			}
		}()
	}
	for i := range obj.Blocks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	n.restoreSpan(traceID, metrics.PhaseDecompress, decompressStart)
	out := make([]byte, 0, obj.OrigSize)
	for i, p := range plain {
		if errs[i] != nil {
			return nil, Metadata{}, 0, fmt.Errorf("node: restore %d block %d: %w", id, i, errs[i])
		}
		out = append(out, p...)
	}
	if int64(len(out)) != obj.OrigSize {
		return nil, Metadata{}, 0, fmt.Errorf("node: restore %d: reassembled %d bytes, expected %d",
			id, len(out), obj.OrigSize)
	}
	return out, meta, obj.DeltaBase, nil
}

// envelope tracks the wall-clock envelope of overlapping operations (the
// streamed restore's fetchers or decompress workers): earliest start,
// latest end. On an overlapped restore the fetch and decompress spans
// overlap, so the timeline's Sum exceeds its Total by the realized overlap
// — the same signature the NDP drain pipeline leaves on the commit side.
type envelope struct {
	mu     sync.Mutex
	marked bool
	start  time.Time
	end    time.Time
}

func (c *envelope) mark(start, end time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.marked || start.Before(c.start) {
		c.start = start
	}
	if !c.marked || end.After(c.end) {
		c.end = end
	}
	c.marked = true
}

// fetchObjectStreamed fetches an object block by block, feeding each block
// into the decompression pool as it lands so decompressing block i
// overlaps fetching block i+1 (§4.3 mirrored onto the restore path). The
// in-flight window is bounded by PrefetchBlocks: that many fetchers run
// concurrently (parallel GetBlocks spread across the iod client's lanes)
// and at most that many fetched blocks wait un-decompressed.
//
// handled == false means the store declined block reads for this key
// (pre-streaming iod server, absent object, transport failure) and the
// caller must fall back to the monolithic fetch.
func (n *Node) fetchObjectStreamed(ctx context.Context, rank int, traceID, id uint64) (_ []byte, _ Metadata, _ uint64, handled bool, err error) {
	key := iostore.Key{Job: n.cfg.Job, Rank: rank, ID: id}
	obj, numBlocks, ok, serr := n.cfg.Store.StatBlocks(ctx, key)
	if serr != nil || !ok {
		return nil, Metadata{}, 0, false, nil
	}
	meta, err := metadataFrom(obj.Meta)
	if err != nil {
		n.mMetaErrs.Inc()
		return nil, Metadata{}, 0, true, fmt.Errorf("node: restore %d: %w", id, err)
	}
	var codec compress.Codec
	if obj.Codec != "" {
		codec, err = compress.Lookup(obj.Codec, obj.CodecLevel)
		if err != nil {
			return nil, Metadata{}, 0, true, fmt.Errorf("node: restore %d: %w", id, err)
		}
	}

	window := n.cfg.PrefetchBlocks
	if window > numBlocks {
		window = numBlocks
	}
	if window < 1 {
		window = 1
	}
	workers := n.cfg.RestoreWorkers
	if workers > numBlocks {
		workers = numBlocks
	}
	if workers < 1 {
		workers = 1
	}

	type block struct {
		idx  int
		data []byte
	}
	var (
		fetchClock, decClock envelope
		plain                = make([][]byte, numBlocks)
		blockErrs            = make([]error, numBlocks)
		indices              = make(chan int)
		fetched              = make(chan block, window)
		stop                 = make(chan struct{})
		stopOnce             sync.Once
	)
	abort := func() { stopOnce.Do(func() { close(stop) }) }

	var fwg sync.WaitGroup
	for f := 0; f < window; f++ {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			for i := range indices {
				t0 := time.Now()
				b, ferr := n.cfg.Store.GetBlock(ctx, key, i)
				fetchClock.mark(t0, time.Now())
				if ferr != nil {
					blockErrs[i] = ferr
					abort()
					return
				}
				select {
				case fetched <- block{i, b}:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		defer close(indices)
		for i := 0; i < numBlocks; i++ {
			select {
			case indices <- i:
			case <-stop:
				return
			}
		}
	}()
	go func() {
		fwg.Wait()
		close(fetched)
	}()

	var dwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		dwg.Add(1)
		go func() {
			defer dwg.Done()
			for blk := range fetched {
				if codec == nil {
					plain[blk.idx] = blk.data
					continue
				}
				t0 := time.Now()
				p, derr := codec.Decompress(nil, blk.data)
				decClock.mark(t0, time.Now())
				n.mDecompressSecs.ObserveSince(t0)
				if derr != nil {
					blockErrs[blk.idx] = derr
					abort()
					return
				}
				plain[blk.idx] = p
			}
		}()
	}
	fwg.Wait()
	dwg.Wait()

	if fetchClock.marked {
		n.timelines.Observe(metrics.KindRestore, traceID, metrics.PhaseFetch, fetchClock.start, fetchClock.end)
	}
	if decClock.marked {
		n.timelines.Observe(metrics.KindRestore, traceID, metrics.PhaseDecompress, decClock.start, decClock.end)
	}
	for i, berr := range blockErrs {
		if berr != nil {
			return nil, Metadata{}, 0, true, fmt.Errorf("node: restore %d block %d: %w", id, i, berr)
		}
	}
	out := make([]byte, 0, obj.OrigSize)
	for _, p := range plain {
		out = append(out, p...)
	}
	if int64(len(out)) != obj.OrigSize {
		return nil, Metadata{}, 0, true, fmt.Errorf("node: restore %d: reassembled %d bytes, expected %d",
			id, len(out), obj.OrigSize)
	}
	return out, meta, obj.DeltaBase, true, nil
}

// FailLocal simulates a node failure that destroys local state: the NVM is
// wiped — including any partner copies and erasure shards this node held
// for other ranks, since they live on the same physical device — and an
// in-flight drain aborts. The node keeps running (a replacement node
// reattaches to the same job/rank).
func (n *Node) FailLocal() {
	n.device.Wipe()
	if dev, err := n.partnerDevice(); err == nil {
		dev.Wipe()
	}
	if dev, err := n.erasureDevice(); err == nil {
		dev.Wipe()
	}
}

// Close shuts the runtime down.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	if n.engine != nil {
		n.engine.Close()
	}
	// Close the tracker after the engine so an in-flight drain's final
	// MarkDurable wins the race against the stop; parked waiters then get
	// the definitive answer rather than ErrStopped.
	n.dur.Close()
	n.link.Close()
}
