// Package ndp implements the near-data processor's drain engine (§4.2.2):
// a background worker coupled to the node's local NVM that moves committed
// checkpoints to global I/O, optionally compressing them on the way with a
// pool of NDP cores, overlapping compression with transmission by streaming
// fixed-size blocks through the NIC as they are produced.
package ndp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/delta"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nic"
	"ndpcr/internal/node/nvm"
)

// Config parameterizes the engine.
type Config struct {
	// Job and Rank identify this node's checkpoints in the global store.
	Job  string
	Rank int

	// Device is the node-local NVM holding committed checkpoints.
	Device *nvm.Device
	// Store is the global I/O store.
	Store iostore.Backend
	// Link is the NIC transmit path; nil sends directly to the store.
	Link *nic.Link

	// Codec compresses blocks before transmission; nil drains raw.
	Codec compress.Codec
	// Workers is the number of NDP cores compressing concurrently
	// (Table 3/4: 4 cores of gzip(1)). Minimum 1.
	Workers int
	// BlockSize is the streaming unit (§4.2.2's "small blocks"); zero
	// selects 1 MB.
	BlockSize int

	// Serialize disables the compress/transmit overlap: the whole
	// checkpoint is compressed before any block is sent (the §4.2.2
	// alternative, kept as an ablation).
	Serialize bool

	// SendWindow bounds how many store writes a drain keeps in flight at
	// once (default 4). The NIC transmit stays serial and in order — the
	// window overlaps the store's per-block write latency (a network round
	// trip on an iod transport), not the wire — and a drain acks only after
	// every outstanding write lands. 1 restores the fully serial sender.
	// Pair a window of W with an iod client of ~W lanes so the writes do
	// not re-serialize at the transport.
	SendWindow int

	// Incremental enables block-level incremental drains (the paper's
	// conclusion's proposed NDP extension): after a full checkpoint
	// reaches I/O, subsequent drains ship only the blocks that changed,
	// with a full checkpoint every FullEvery drains to bound restore
	// chains.
	Incremental bool
	// FullEvery bounds the patch-chain length (default 8).
	FullEvery int
	// DeltaBlockSize is the dedup granularity (default
	// delta.DefaultBlockSize).
	DeltaBlockSize int

	// OnError receives asynchronous drain errors; nil discards them.
	OnError func(error)

	// Tracker receives per-level durability watermarks as drains complete
	// (LevelStore) and failures exhaust their retries. Nil creates a
	// private tracker, owned (and closed) by the engine; a caller-supplied
	// tracker is shared — the node marks LevelNVM on commit and the
	// cluster marks partner/erasure levels — and the caller closes it.
	Tracker *Tracker

	// Gate, when non-nil, is acquired around every drain: the engine calls
	// it before picking a candidate (so no NVM lock is held while queued)
	// and invokes the returned release after the drain finishes. The
	// gateway uses it for QoS-weighted drain scheduling across tenants.
	// The context is canceled when the engine stops; a Gate error is
	// treated as "stopping" and ends the current drain sweep.
	Gate func(ctx context.Context) (release func(), err error)

	// MaxDrainAttempts bounds automatic retries of a failing drain. Zero
	// keeps the legacy behavior: no automatic retry, the next doorbell
	// re-attempts the newest checkpoint. With N > 0, a drain that fails N
	// times is permanently failed on the tracker (waiters get
	// ErrCheckpointFailed) and skipped thereafter.
	MaxDrainAttempts int
	// DrainRetryBackoff is the base delay between automatic retries
	// (default 50ms, growing linearly per attempt, capped at 2s).
	DrainRetryBackoff time.Duration

	// Metrics, when non-nil, receives drain counters and per-phase
	// latency/byte histograms.
	Metrics *metrics.Registry
	// Timelines, when non-nil, receives per-checkpoint phase spans
	// (pause → read → diff → compress → xmit → ack); the host records the
	// commit span into the same set, so a drained checkpoint's timeline
	// covers its whole trip through the pipeline.
	Timelines *metrics.TimelineSet
}

// Engine drains checkpoints in the background. Create with New, feed with
// Notify, stop with Close.
type Engine struct {
	cfg Config

	bell chan struct{}
	stop chan struct{}
	done chan struct{}

	// gate pauses NVM reads while the host commits (§4.2.1): the host
	// holds the write side for the duration of its NVM write.
	gate sync.RWMutex

	stopOnce sync.Once

	// tracker records per-level durability; ownTracker means the engine
	// created it and closes it on Close.
	tracker    *Tracker
	ownTracker bool
	// runCtx is canceled when the engine stops; it bounds Gate waits.
	runCtx    context.Context
	runCancel context.CancelFunc

	mu sync.Mutex
	// discarded holds checkpoint IDs whose coordinated checkpoint aborted:
	// they must never be marked drained, and any blocks already shipped are
	// deleted. IDs are never reused after an abort (the cluster resyncs
	// counters forward), so entries are permanent and the set stays tiny.
	discarded map[uint64]bool
	// attempts counts consecutive drain failures per ID; failed holds IDs
	// that exhausted MaxDrainAttempts and must be skipped like discards.
	attempts map[uint64]int
	failed   map[uint64]bool

	// Incremental-drain state: the digest table of the last drained
	// checkpoint and the number of patches since the last full drain.
	// Only the run goroutine touches these.
	tbl       *delta.Table
	sinceFull int

	// Metrics (nil when Config.Metrics is nil).
	mDrains       *metrics.Counter
	mDrainErrors  *metrics.Counter
	mSkipped      *metrics.Counter
	mInFlight     *metrics.Gauge
	mDrainSecs    *metrics.Histogram
	mPauseWait    *metrics.Histogram
	mCompressSecs *metrics.Histogram
	mNICSendSecs  *metrics.Histogram
	mStoreSecs    *metrics.Histogram
	mInBytes      *metrics.Histogram
	mOutBytes     *metrics.Histogram
	mRetries      *metrics.Counter
	mPermFailures *metrics.Counter
}

// New creates and starts an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Device == nil || cfg.Store == nil {
		return nil, errors.New("ndp: Device and Store are required")
	}
	if cfg.Job == "" {
		return nil, errors.New("ndp: Job is required")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 1 << 20
	}
	if cfg.SendWindow <= 0 {
		cfg.SendWindow = 4
	}
	if cfg.FullEvery <= 0 {
		cfg.FullEvery = 8
	}
	if cfg.DeltaBlockSize <= 0 {
		cfg.DeltaBlockSize = delta.DefaultBlockSize
	}
	e := &Engine{
		cfg:       cfg,
		bell:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		discarded: make(map[uint64]bool),
		attempts:  make(map[uint64]int),
		failed:    make(map[uint64]bool),
	}
	e.tracker = cfg.Tracker
	if e.tracker == nil {
		e.tracker = NewTracker()
		e.ownTracker = true
	}
	e.runCtx, e.runCancel = context.WithCancel(context.Background())
	if r := cfg.Metrics; r != nil {
		e.mDrains = r.Counter("ndpcr_ndp_drains_total", "checkpoints fully drained to global I/O")
		e.mDrainErrors = r.Counter("ndpcr_ndp_drain_errors_total", "drains aborted by an error")
		e.mSkipped = r.Counter("ndpcr_ndp_skipped_total", "stale checkpoints skipped by the newest-first policy")
		e.mInFlight = r.Gauge("ndpcr_ndp_inflight_drains", "drains currently in progress")
		e.mDrainSecs = r.Histogram("ndpcr_ndp_drain_seconds", "wall time per drain", metrics.UnitSeconds)
		e.mPauseWait = r.Histogram("ndpcr_ndp_pause_wait_seconds", "time excluded from NVM by host commits", metrics.UnitSeconds)
		e.mCompressSecs = r.Histogram("ndpcr_ndp_compress_seconds", "busy time per compressed block", metrics.UnitSeconds)
		e.mNICSendSecs = r.Histogram("ndpcr_ndp_nic_send_seconds", "busy time per block on the NIC", metrics.UnitSeconds)
		e.mStoreSecs = r.Histogram("ndpcr_ndp_store_write_seconds", "busy time per block written to the store", metrics.UnitSeconds)
		e.mInBytes = r.Histogram("ndpcr_ndp_drain_in_bytes", "payload bytes entering a drain", metrics.UnitBytes)
		e.mOutBytes = r.Histogram("ndpcr_ndp_drain_out_bytes", "bytes shipped to global I/O per drain", metrics.UnitBytes)
		e.mRetries = r.Counter("ndpcr_ndp_drain_retries_total", "automatic drain retries scheduled after a failure")
		e.mPermFailures = r.Counter("ndpcr_ndp_drain_failures_total", "drains permanently failed after exhausting MaxDrainAttempts")
	}
	go e.run()
	return e, nil
}

// Notify rings the doorbell: a new checkpoint is available in NVM
// (§4.2.2's host-to-NDP notification). Never blocks.
func (e *Engine) Notify() {
	select {
	case e.bell <- struct{}{}:
	default:
	}
}

// Tracker exposes the engine's durability tracker: the single completion
// surface for drain progress (LevelStore watermark, per-ID failures).
func (e *Engine) Tracker() *Tracker { return e.tracker }

// Discard poisons a checkpoint ID whose coordinated checkpoint aborted: the
// engine will not start draining it, and a drain already in flight deletes
// whatever it shipped instead of acknowledging. The caller guarantees the
// ID is never committed again (the cluster resynchronizes checkpoint
// counters past it).
func (e *Engine) Discard(id uint64) {
	e.mu.Lock()
	e.discarded[id] = true
	e.mu.Unlock()
	// Waiters on the dead ID learn it will never arrive, instead of
	// blocking until their deadline.
	e.tracker.Fail(id, ErrDiscarded)
}

// isDiscarded reports whether id was poisoned by Discard.
func (e *Engine) isDiscarded(id uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.discarded[id]
}

// PauseNVM blocks NDP reads of the NVM; the host calls it around its own
// commits so the full device bandwidth serves the application (§4.2.1).
func (e *Engine) PauseNVM() { e.gate.Lock() }

// ResumeNVM re-enables NDP reads.
func (e *Engine) ResumeNVM() { e.gate.Unlock() }

// Close stops the engine, waiting for the current drain to abort. It is
// safe to call multiple times. An engine-owned tracker is closed too,
// releasing parked waiters with ErrStopped; a shared tracker stays open
// for its owner (the node) to close.
func (e *Engine) Close() {
	e.stopOnce.Do(func() {
		close(e.stop)
		e.runCancel()
	})
	<-e.done
	if e.ownTracker {
		e.tracker.Close()
	}
}

func (e *Engine) run() {
	defer close(e.done)
	for {
		select {
		case <-e.stop:
			return
		case <-e.bell:
		}
		// Drain until nothing newer remains; re-check after each drain so
		// a checkpoint committed mid-drain is picked up without another
		// doorbell edge.
		for {
			release, ok := e.acquireGate()
			if !ok {
				break // gate refused: the engine is stopping
			}
			id, ok := e.nextUndrained() // holds an eviction lock on id
			if !ok {
				release()
				break
			}
			err := e.drain(id)
			release()
			if err != nil {
				// A drain aborted by engine shutdown is expected, not an
				// error worth surfacing.
				select {
				case <-e.stop:
				default:
					e.reportError(err)
					if e.retryOrFail(id, err) {
						continue // permanently failed: skip it, look for other work
					}
				}
				break // back to the doorbell (a scheduled retry rings it)
			}
			e.mu.Lock()
			delete(e.attempts, id)
			e.mu.Unlock()
			select {
			case <-e.stop:
				return
			default:
			}
		}
	}
}

// acquireGate takes the configured drain-scheduling slot, if any. ok ==
// false means the gate refused (engine stopping) and the sweep should end.
func (e *Engine) acquireGate() (func(), bool) {
	if e.cfg.Gate == nil {
		return func() {}, true
	}
	release, err := e.cfg.Gate(e.runCtx)
	if err != nil {
		return nil, false
	}
	return release, true
}

// retryOrFail accounts one drain failure. It reports true when the ID was
// permanently failed (the sweep should continue to other work); false
// means either a retry was scheduled via the doorbell or legacy
// no-auto-retry mode is in effect.
func (e *Engine) retryOrFail(id uint64, cause error) bool {
	max := e.cfg.MaxDrainAttempts
	if max <= 0 {
		return false // legacy: wait for the next doorbell edge
	}
	e.mu.Lock()
	e.attempts[id]++
	n := e.attempts[id]
	if n >= max {
		delete(e.attempts, id)
		e.failed[id] = true
		e.mu.Unlock()
		e.tracker.Fail(id, cause)
		if e.mPermFailures != nil {
			e.mPermFailures.Inc()
		}
		return true
	}
	e.mu.Unlock()
	if e.mRetries != nil {
		e.mRetries.Inc()
	}
	backoff := e.cfg.DrainRetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	d := backoff * time.Duration(n)
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	time.AfterFunc(d, e.Notify)
	return false
}

// nextUndrained picks the newest NVM checkpoint not yet on I/O — the
// "as frequently as possible" policy that skips stale intermediates when
// the drain is slower than the commit cadence (§6.2). On success the
// checkpoint is already pinned against eviction: a separate Latest-then-
// Lock sequence races with Put-driven circular-buffer eviction, which can
// reclaim the chosen checkpoint in the window between the two calls. The
// caller (drain) owns the lock and must release it.
func (e *Engine) nextUndrained() (uint64, bool) {
	latest, ok := e.cfg.Device.LatestLocked()
	if !ok {
		return 0, false
	}
	wm, drainedAny := e.tracker.Watermark(LevelStore)
	e.mu.Lock()
	stale := (drainedAny && latest.ID <= wm) || e.discarded[latest.ID] || e.failed[latest.ID]
	e.mu.Unlock()
	if stale {
		if err := e.cfg.Device.Unlock(latest.ID); err != nil {
			e.reportError(fmt.Errorf("ndp: unlock stale %d: %w", latest.ID, err))
		}
		return 0, false
	}
	return latest.ID, true
}

// drain moves one checkpoint to global I/O. The caller has already locked
// id in NVM; drain releases the lock.
func (e *Engine) drain(id uint64) error {
	dev := e.cfg.Device
	defer func() {
		if err := dev.Unlock(id); err != nil && !errors.Is(err, nvm.ErrNotFound) {
			e.reportError(fmt.Errorf("ndp: unlock %d: %w", id, err))
		}
	}()
	if e.isDiscarded(id) {
		// Poisoned between pick and drain: clean any shipped blocks. A
		// failed cleanup leaks a torn object — surface it.
		key := iostore.Key{Job: e.cfg.Job, Rank: e.cfg.Rank, ID: id}
		if derr := e.cfg.Store.Delete(context.Background(), key); derr != nil {
			e.reportError(fmt.Errorf("ndp: discard cleanup %d: %w", id, derr))
		}
		return nil
	}
	if e.mInFlight != nil {
		e.mInFlight.Inc()
		defer e.mInFlight.Dec()
	}
	drainStart := time.Now()

	// Read the checkpoint under the NVM gate so host commits exclude us.
	// The wait for the gate is the paper's §4.2.1 pause; the read itself is
	// the NDP's paced NVM access.
	e.gate.RLock()
	gateHeld := time.Now()
	e.span(id, metrics.PhasePause, drainStart, gateHeld)
	ckpt, err := dev.Get(id)
	e.gate.RUnlock()
	e.span(id, metrics.PhaseRead, gateHeld, time.Now())
	if err != nil {
		if errors.Is(err, nvm.ErrNotFound) {
			return nil
		}
		return err
	}

	key := iostore.Key{Job: e.cfg.Job, Rank: e.cfg.Rank, ID: id}
	meta := iostore.Object{
		OrigSize: int64(len(ckpt.Data)),
		Meta:     ckpt.Meta,
	}
	if e.cfg.Codec != nil {
		meta.Codec = e.cfg.Codec.Name()
		meta.CodecLevel = e.cfg.Codec.Level()
	}

	// Incremental drains ship a patch against the last drained checkpoint
	// instead of the full data (conclusion's proposed NDP optimization).
	payload := ckpt.Data
	var nextTbl *delta.Table
	if e.cfg.Incremental && e.tbl != nil && e.sinceFull < e.cfg.FullEvery {
		diffStart := time.Now()
		patch, t2, derr := delta.Diff(e.tbl, id, ckpt.Data)
		if derr != nil {
			return fmt.Errorf("ndp: diff %d: %w", id, derr)
		}
		payload = patch.Encode(nil)
		meta.DeltaBase = e.tbl.BaseID
		meta.OrigSize = int64(len(payload))
		nextTbl = t2
		e.span(id, metrics.PhaseDiff, diffStart, time.Now())
	} else if e.cfg.Incremental {
		diffStart := time.Now()
		nextTbl = delta.Snapshot(id, ckpt.Data, e.cfg.DeltaBlockSize)
		e.span(id, metrics.PhaseDiff, diffStart, time.Now())
	}
	if e.mPauseWait != nil {
		e.mPauseWait.ObserveDuration(gateHeld.Sub(drainStart))
		e.mInBytes.Observe(int64(len(payload)))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-e.stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	var blocks [][]byte
	if e.cfg.Serialize {
		compressStart := time.Now()
		blocks, err = e.compressAll(payload)
		if e.cfg.Codec != nil {
			e.span(id, metrics.PhaseCompress, compressStart, time.Now())
		}
		if err == nil {
			xmitStart := time.Now()
			err = e.sendBlocks(ctx, key, meta, blocks, 0)
			e.span(id, metrics.PhaseXmit, xmitStart, time.Now())
		}
	} else {
		err = e.pipeline(ctx, id, key, meta, payload)
	}
	if err != nil {
		// A torn object must not be restorable. The delete runs on a fresh
		// context: the drain ctx may already be canceled (engine shutdown),
		// but the cleanup must still be attempted.
		if derr := e.cfg.Store.Delete(context.Background(), key); derr != nil {
			e.reportError(fmt.Errorf("ndp: abort cleanup %d: %w", id, derr))
		}
		if e.mDrainErrors != nil {
			e.mDrainErrors.Inc()
		}
		return fmt.Errorf("ndp: drain %d: %w", id, err)
	}
	ackStart := time.Now()
	if e.isDiscarded(id) {
		// The coordinated checkpoint for this ID aborted while the drain
		// was in flight: the shipped object is poison, not progress.
		if derr := e.cfg.Store.Delete(context.Background(), key); derr != nil {
			e.reportError(fmt.Errorf("ndp: discard cleanup %d: %w", id, derr))
		}
		return nil
	}
	if e.cfg.Incremental {
		if meta.DeltaBase != 0 {
			e.sinceFull++
		} else {
			e.sinceFull = 0
		}
		e.tbl = nextTbl
	}

	skipped := uint64(0)
	if wm, has := e.tracker.Watermark(LevelStore); has && id > wm+1 {
		skipped = id - wm - 1
	}
	e.tracker.MarkDurable(LevelStore, id)
	e.span(id, metrics.PhaseAck, ackStart, time.Now())
	if ts := e.cfg.Timelines; ts != nil {
		ts.Finish(metrics.KindCheckpoint, id)
		ts.DiscardOlder(metrics.KindCheckpoint, id)
	}
	if e.mDrains != nil {
		e.mDrains.Inc()
		e.mSkipped.Add(skipped)
		e.mDrainSecs.ObserveSince(drainStart)
		var out int64
		for _, b := range blocks {
			out += int64(len(b))
		}
		if e.cfg.Serialize {
			e.mOutBytes.Observe(out)
		}
	}
	return nil
}

// span records one timeline phase when timelines are enabled.
func (e *Engine) span(id uint64, phase metrics.Phase, start, end time.Time) {
	if ts := e.cfg.Timelines; ts != nil {
		ts.Observe(metrics.KindCheckpoint, id, phase, start, end)
	}
}

// splitBlocks cuts data into BlockSize units (the last may be short).
func (e *Engine) splitBlocks(data []byte) [][]byte {
	bs := e.cfg.BlockSize
	n := (len(data) + bs - 1) / bs
	if n == 0 {
		return [][]byte{nil}
	}
	out := make([][]byte, 0, n)
	for off := 0; off < len(data); off += bs {
		end := off + bs
		if end > len(data) {
			end = len(data)
		}
		out = append(out, data[off:end])
	}
	return out
}

// compressAll compresses every block before any transmission (Serialize
// mode).
func (e *Engine) compressAll(data []byte) ([][]byte, error) {
	raw := e.splitBlocks(data)
	if e.cfg.Codec == nil {
		return raw, nil
	}
	out := make([][]byte, len(raw))
	errs := make([]error, len(raw))
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t0 := time.Now()
				out[i], errs[i] = e.cfg.Codec.Compress(nil, raw[i])
				if e.mCompressSecs != nil {
					e.mCompressSecs.ObserveSince(t0)
				}
			}
		}()
	}
	for i := range raw {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sender ships one drain's blocks: NIC transmission is serial and in order
// (one wire), while store writes run asynchronously behind it, bounded by
// SendWindow. PutBlock writes by index, so out-of-order completion of the
// windowed writes cannot tear the object; wait() is the ack barrier — no
// drain acknowledges until every outstanding write has landed.
type sender struct {
	e     *Engine
	key   iostore.Key
	meta  iostore.Object
	sem   chan struct{}
	wg    sync.WaitGroup
	clock *spanClock // optional xmit envelope across NIC + store spans

	errMu sync.Mutex
	err   error
}

func (e *Engine) newSender(key iostore.Key, meta iostore.Object, clock *spanClock) *sender {
	return &sender{e: e, key: key, meta: meta, sem: make(chan struct{}, e.cfg.SendWindow), clock: clock}
}

func (s *sender) firstErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

func (s *sender) setErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// send transmits one block: the NIC send runs on the caller (serial, in
// order), the store write in a windowed goroutine. A previously failed
// write fails fast here so the drain aborts instead of streaming into a
// broken store.
func (s *sender) send(ctx context.Context, idx int, b []byte) error {
	if err := s.firstErr(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	e := s.e
	if e.cfg.Link != nil {
		t0 := time.Now()
		if err := e.cfg.Link.Send(ctx, b); err != nil {
			return err
		}
		if e.mNICSendSecs != nil {
			e.mNICSendSecs.ObserveSince(t0)
		}
		if s.clock != nil {
			s.clock.mark(t0, time.Now())
		}
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.wg.Add(1)
	go func() {
		defer func() {
			<-s.sem
			s.wg.Done()
		}()
		t1 := time.Now()
		if err := e.cfg.Store.PutBlock(ctx, s.key, s.meta, idx, b); err != nil {
			s.setErr(err)
			return
		}
		if e.mStoreSecs != nil {
			e.mStoreSecs.ObserveSince(t1)
		}
		if s.clock != nil {
			s.clock.mark(t1, time.Now())
		}
	}()
	return nil
}

// wait blocks until every in-flight store write finishes and returns the
// first write error, if any.
func (s *sender) wait() error {
	s.wg.Wait()
	return s.firstErr()
}

// sendBlocks transmits blocks in order through the NIC to the store,
// finalizing the object metadata on completion. Store writes overlap up to
// SendWindow deep; the call returns only once all of them have landed, so
// callers keep the strict completed-means-durable semantics.
func (e *Engine) sendBlocks(ctx context.Context, key iostore.Key, meta iostore.Object, blocks [][]byte, startIdx int) error {
	s := e.newSender(key, meta, nil)
	defer s.wg.Wait() // never return with writes still in flight
	for i, b := range blocks {
		if err := s.send(ctx, startIdx+i, b); err != nil {
			return err
		}
	}
	return s.wait()
}

// spanClock tracks the wall-clock envelope of a set of overlapping
// operations (the pipeline's compression workers, or its in-order sender):
// the earliest mark start and the latest mark end.
type spanClock struct {
	mu     sync.Mutex
	marked bool
	start  time.Time
	end    time.Time
}

func (c *spanClock) mark(start, end time.Time) {
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

// snapshot reads the envelope under the lock: on an early pipeline return
// (context cancel, send error) workers may still be marking concurrently.
func (c *spanClock) snapshot() (start, end time.Time, marked bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.start, c.end, c.marked
}

// pipeline overlaps block compression (Workers cores) with in-order
// transmission: block i+1 compresses while block i is on the wire. The
// compress and xmit timeline spans are wall-clock envelopes across workers,
// so on an overlapped drain the timeline's Sum exceeds its Total by exactly
// the realized overlap.
func (e *Engine) pipeline(ctx context.Context, id uint64, key iostore.Key, meta iostore.Object, data []byte) error {
	raw := e.splitBlocks(data)
	if e.cfg.Codec == nil {
		xmitStart := time.Now()
		err := e.sendBlocks(ctx, key, meta, raw, 0)
		e.span(id, metrics.PhaseXmit, xmitStart, time.Now())
		if err == nil && e.mOutBytes != nil {
			var out int64
			for _, b := range raw {
				out += int64(len(b))
			}
			e.mOutBytes.Observe(out)
		}
		return err
	}

	var compressClock, xmitClock spanClock
	defer func() {
		if start, end, marked := compressClock.snapshot(); marked {
			e.span(id, metrics.PhaseCompress, start, end)
		}
		if start, end, marked := xmitClock.snapshot(); marked {
			e.span(id, metrics.PhaseXmit, start, end)
		}
	}()

	type result struct {
		idx  int
		data []byte
		err  error
	}
	jobs := make(chan int)
	results := make(chan result, e.cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				t0 := time.Now()
				c, err := e.cfg.Codec.Compress(nil, raw[i])
				compressClock.mark(t0, time.Now())
				if e.mCompressSecs != nil {
					e.mCompressSecs.ObserveSince(t0)
				}
				select {
				case results <- result{i, c, err}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := range raw {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder and hand off to the windowed sender as blocks complete: the
	// NIC sees blocks strictly in order, while up to SendWindow store
	// writes ride behind it concurrently.
	snd := e.newSender(key, meta, &xmitClock)
	defer snd.wg.Wait() // never return with writes still in flight
	pending := make(map[int][]byte, e.cfg.Workers)
	next := 0
	var out int64
	for next < len(raw) {
		var r result
		var ok bool
		select {
		case r, ok = <-results:
		case <-ctx.Done():
			return ctx.Err()
		}
		if !ok {
			return fmt.Errorf("ndp: pipeline ended with %d/%d blocks sent", next, len(raw))
		}
		if r.err != nil {
			return r.err
		}
		pending[r.idx] = r.data
		for {
			b, ready := pending[next]
			if !ready {
				break
			}
			delete(pending, next)
			if err := snd.send(ctx, next, b); err != nil {
				return err
			}
			out += int64(len(b))
			next++
		}
	}
	if err := snd.wait(); err != nil {
		return err
	}
	if e.mOutBytes != nil {
		e.mOutBytes.Observe(out)
	}
	return nil
}

func (e *Engine) reportError(err error) {
	if e.cfg.OnError != nil && err != nil {
		e.cfg.OnError(err)
	}
}
