package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ndpcr/internal/gateway"
	"ndpcr/internal/node/iostore"
)

// spec is one workload: who sends what, how fast, to which runs.
type spec struct {
	Name string
	// Small selects 16 KiB saves cut from the bulk pool instead of whole
	// bulk checkpoints.
	Small bool
	// Writers is the writer client count. Each owns its runs; a writer's
	// saves alternate durable-at-store and durable-at-NVM acks, and every
	// checkpoint that leaves a run's retention window is restored,
	// byte-compared and deleted.
	Writers int
	// Tenants is how many tenants (each its own namespace and run) the
	// writers rotate over; with one tenant the writers are ranks of one run.
	Tenants int
	// Rate, when positive, runs the writers open loop at this many saves
	// per second in total; otherwise they run closed loop.
	Rate float64
	// Readers is the closed-loop restore client count over a preloaded
	// set of PreloadRanks × PreloadPer bulk checkpoints.
	Readers      int
	PreloadRanks int
	PreloadPer   int
	// TailQ is the tail percentile reported: p95, or p90 where the calm
	// half of a 45-second run leaves fewer than twenty samples beyond p95.
	// Not p99: a few seconds of host CPU steal slow about 1% of a run's
	// operations, and on a 2-vCPU VM that moved ckpt_small's p99 between
	// 1.9 and 4.8 ms.
	TailQ float64
}

// The workloads. Client concurrency is fixed here, never taken from the
// host's GOMAXPROCS; the tail percentiles assume 45-second runs.
var specs = []spec{
	// Drain-bound: 0.8–5 MB mini-app checkpoints through compress, ndp,
	// shard fan-out, the iod wire and the iostore copy.
	{Name: "ckpt_bulk", Writers: 2, Tenants: 1, TailQ: 95},
	// Per-request fixed costs: 16 KiB saves over 32 tenants through HTTP,
	// auth, sessions, NVM bookkeeping and shard metadata.
	{Name: "ckpt_small", Small: true, Writers: 2, Tenants: 32, TailQ: 95},
	// The restore path (streamed GetBlock, decompress, NVM cache hits)
	// beside open-loop saves: two writers at 10 saves/s each, the most
	// one sequential writer sustains on 2 vCPUs with the drain keeping up.
	{Name: "restart_mixed", Writers: 2, Tenants: 2, Rate: 20, Readers: 1, PreloadRanks: 2, PreloadPer: 12, TailQ: 90},
}

// preloadItems lists the pool items rank saves into the preloaded restore
// set, oldest first: every item once in seeded order, then, while the set
// is short, a seeded rank-specific share of one permutation common to all
// ranks. So each rank holds every item at least once, whatever the seed.
func preloadItems(sp spec, items int, seed uint64, rank int) []int {
	own := newCycle(seed^uint64(0x2000+rank), items)
	shared := newCycle(seed^0x2100, items)
	extra := sp.PreloadPer - items
	for i := 0; i < rank*extra; i++ {
		shared.next()
	}
	var out []int
	for i := 0; i < sp.PreloadPer; i++ {
		if i < items {
			out = append(out, own.next())
		} else {
			out = append(out, shared.next())
		}
	}
	return out
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// retain is how many acked checkpoints each run keeps, the gateway's
// default RetainLocal: older ones are validated and deleted.
const retain = 4

// asyncBound is how long an async-acked save may take to become store
// durable before it counts as failed.
const asyncBound = 10 * time.Second

// opTimeout bounds every client call.
const opTimeout = 60 * time.Second

// acked is one checkpoint the gateway acknowledged.
type acked struct {
	run  *run
	id   uint64
	item int    // pool index
	seq  uint64 // stamp
	size int
}

func (a acked) key() iostore.Key {
	return iostore.Key{Job: gateway.JobKey(a.run.ns, a.run.name), Rank: a.run.rank, ID: a.id}
}

// run is one (namespace, run, rank) a client writes to.
type run struct {
	client *gateway.Client
	ns     string
	name   string
	rank   int
	window []acked // retained checkpoints, oldest first
	// keepAll retains every checkpoint (the preloaded restore set).
	keepAll bool
}

// done is one completed save or restore, for windowed throughput.
type done struct {
	start, end time.Time
	bytes      int64
}

// tally is one actor's measurements; actors merge theirs when done.
type tally struct {
	start                                           time.Time // measured interval, set on the merged tally
	length                                          time.Duration
	saveDone, loadDone                              []done
	timed                                           []sample
	ioLoadLat, late                                 []float64 // ms
	saves, saveBytes, loads, loadBytes, ioLoadBytes int64
	attempted, failed, ops                          int64
	stored, user                                    int64 // inspected acked checkpoints
	fails                                           map[string]int
	levels                                          map[string]int
}

func newTally() *tally { return &tally{fails: map[string]int{}, levels: map[string]int{}} }

func (t *tally) fail(reason string) {
	t.failed++
	t.fails[reason]++
}

func (t *tally) merge(o *tally) {
	t.saveDone = append(t.saveDone, o.saveDone...)
	t.loadDone = append(t.loadDone, o.loadDone...)
	t.timed = append(t.timed, o.timed...)
	t.ioLoadLat = append(t.ioLoadLat, o.ioLoadLat...)
	t.late = append(t.late, o.late...)
	t.saves += o.saves
	t.saveBytes += o.saveBytes
	t.loads += o.loads
	t.loadBytes += o.loadBytes
	t.ioLoadBytes += o.ioLoadBytes
	t.attempted += o.attempted
	t.failed += o.failed
	t.ops += o.ops
	t.stored += o.stored
	t.user += o.user
	for k, v := range o.fails {
		t.fails[k] += v
	}
	for k, v := range o.levels {
		t.levels[k] += v
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// env is what actors share: the stack, the inputs and the tracer.
type env struct {
	st   *stack
	pool [][]byte
	tr   *tracer // nil when untraced
	seq  *atomic.Uint64
}

// writer is one writer client. Its saves alternate durable-at-store (the
// sync ack) and durable-at-NVM (the async ack, followed by a wait for
// store durability on the same connection).
type writer struct {
	e    *env
	runs []*run
	// draws deals (pool item, ack mode) pairs in seeded order: every item
	// once per mode per round, so the seed cannot tie an ack mode to
	// particular items.
	draws cycle
	turns cycle // the writer's runs, in seeded order
	buf   []byte
}

func newDraws(seed uint64, items int) cycle { return newCycle(seed, 2*items) }

// draw picks the next pool item and whether its save is async.
func (w *writer) draw() (item int, async bool) {
	d := w.draws.next()
	return d / 2, d%2 == 1
}

// save writes pool item to r; due is when it was meant to start (open
// loop) or zero (closed loop).
func (w *writer) save(t *tally, r *run, due time.Time, item int, async bool) {
	seq := w.e.seq.Add(1)
	w.buf = stamp(w.buf, w.e.pool[item], seq)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	t0 := w.e.tr.now()
	t.attempted++
	var id uint64
	var err error
	if async {
		id, err = r.client.SaveAsync(ctx, r.ns, r.name, r.rank, int(seq), w.buf)
	} else {
		id, err = r.client.Save(ctx, r.ns, r.name, r.rank, int(seq), w.buf)
	}
	ackAt := time.Now()
	rec := acked{run: r, id: id, item: item, seq: seq, size: len(w.buf)}
	if err != nil {
		t.fail(failCode("save", err))
		kind := "save"
		if async {
			kind = "async"
		}
		w.e.tr.addRoot(root{Kind: kind, Seq: seq, Start: t0, End: w.e.tr.now(), Err: true})
		return
	}
	t.ops++
	if !async {
		t.timed = append(t.timed, sample{kindSave, item, ackAt, ms(ackAt.Sub(due))})
		w.e.tr.addRoot(root{Kind: "save", Key: rec.key(), Seq: seq, Start: t0, End: w.e.tr.now()})
	} else {
		t.timed = append(t.timed, sample{kindAck, item, ackAt, ms(ackAt.Sub(due))})
		t.attempted++
		d, err := r.client.Durability(ctx, r.ns, r.name, r.rank, id, "store")
		durableAt := time.Now()
		lag := durableAt.Sub(ackAt)
		w.e.tr.addRoot(root{Kind: "async", Key: rec.key(), Seq: seq, Start: t0, End: w.e.tr.now(), Err: err != nil})
		switch {
		case err != nil:
			t.fail(failCode("durability", err))
			return
		case d.Failed || !d.Durable("store"):
			t.fail("async_not_durable")
			return
		case lag > asyncBound:
			t.fail("async_lag_over_bound")
			return
		}
		t.ops++
		t.timed = append(t.timed, sample{kindLag, item, durableAt, ms(lag)})
	}
	t.saves++
	t.saveBytes += int64(len(w.buf))
	t.saveDone = append(t.saveDone, done{start, time.Now(), int64(len(w.buf))})
	r.window = append(r.window, rec)
	if len(r.window) > retain && !r.keepAll {
		old := r.window[0]
		r.window = r.window[1:]
		w.retire(t, old)
	}
}

// retire validates a checkpoint leaving its run's retention window — held
// at R copies on the backing stores, restorable byte-identical — and
// deletes it.
func (w *writer) retire(t *tally, a acked) {
	inspect(w.e.st, t, a)
	load(w.e, t, a)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	t.attempted++
	t0 := w.e.tr.now()
	err := a.run.client.Delete(ctx, a.run.ns, a.run.name, a.run.rank, a.id)
	w.e.tr.addRoot(root{Kind: "delete", Key: a.key(), Start: t0, End: w.e.tr.now(), Err: err != nil})
	if err != nil {
		t.fail(failCode("delete", err))
		return
	}
	t.ops++
}

// inspect checks a sync- or store-durable-acked checkpoint is held at R
// copies on the bench-owned backing stores, and accounts its stored bytes.
func inspect(st *stack, t *tally, a acked) {
	copies, stored := st.holding(a.key())
	if copies != replicas {
		t.fail(fmt.Sprintf("held_at_%d_copies", copies))
		return
	}
	t.stored += stored
	t.user += int64(a.size)
}

// load restores a and compares it byte for byte with what was saved.
func load(e *env, t *tally, a acked) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	t.attempted++
	start := time.Now()
	t0 := e.tr.now()
	c, err := a.run.client.Load(ctx, a.run.ns, a.run.name, a.run.rank, a.id)
	end := time.Now()
	lat := end.Sub(start)
	e.tr.addRoot(root{Kind: "load", Key: a.key(), Start: t0, End: e.tr.now(), Err: err != nil})
	if err != nil {
		t.fail(failCode("load", err))
		return
	}
	if c.ID != a.id || !matches(c.Data, e.pool[a.item], a.seq) {
		t.fail("load_wrong_bytes")
		return
	}
	t.ops++
	t.levels[c.Level]++
	t.loads++
	t.loadBytes += int64(len(c.Data))
	t.loadDone = append(t.loadDone, done{start, time.Now(), int64(len(c.Data))})
	t.timed = append(t.timed, sample{kindLoad, a.item, end, ms(lat)})
	if c.Level == "io" {
		t.ioLoadLat = append(t.ioLoadLat, ms(lat))
		t.ioLoadBytes += int64(len(c.Data))
	}
}

// failCode names a failure by the gateway's error code when it has one.
func failCode(op string, err error) string {
	var ae *gateway.APIError
	if errors.As(err, &ae) {
		return op + "_" + ae.Code
	}
	return op + "_error"
}

// runClosed runs the writer closed loop until deadline.
func (w *writer) runClosed(t *tally, deadline time.Time) {
	for time.Now().Before(deadline) {
		item, async := w.draw()
		w.save(t, w.runs[w.turns.next()], time.Time{}, item, async)
	}
}

// runOpen runs the writer open loop at rate saves/s: save k is due at
// start + k/rate and timed from then, so a stall shows in every save it
// delays; how late each save started is recorded too.
func (w *writer) runOpen(t *tally, start, deadline time.Time, rate float64) {
	for k := 0; ; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if !due.Before(deadline) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t.late = append(t.late, ms(time.Since(due)))
		item, async := w.draw()
		w.save(t, w.runs[w.turns.next()], due, item, async)
	}
}

// reader restores seeded picks of the preloaded set, closed loop.
type reader struct {
	e     *env
	set   []acked
	picks cycle
}

func (rd *reader) run(t *tally, deadline time.Time) {
	for time.Now().Before(deadline) {
		load(rd.e, t, rd.set[rd.picks.next()])
	}
}

// rig is a set-up workload: the stack with warm sessions, ready to
// measure.
type rig struct {
	sp      spec
	e       *env
	writers []*writer
	readers []*reader
	preload []acked
}

// tenants builds the tenant set of a workload: one per writer tenant,
// plus one for the preloaded restore set.
func tenantsFor(sp spec) []gateway.Tenant {
	var ts []gateway.Tenant
	add := func(name string) {
		ts = append(ts, gateway.Tenant{Name: name, Token: "tok-" + name,
			Quota: gateway.Quota{MaxBytes: 1 << 40}})
	}
	for i := 0; i < sp.Tenants; i++ {
		add("w" + strconv.Itoa(i))
	}
	if sp.Readers > 0 {
		add("restart")
	}
	return ts
}

// setUp starts the stack and warms it: one acked save on every writer run
// (so sessions exist before timing) and, for a restore workload, the
// preloaded set, saved PreloadRanks ranks at a time.
func setUp(sp spec, pool [][]byte, seed uint64, seq *atomic.Uint64, tr *tracer) (*rig, error) {
	st, err := startStack(tenantsFor(sp), tr)
	if err != nil {
		return nil, err
	}
	e := &env{st: st, pool: pool, tr: tr, seq: seq}
	g := &rig{sp: sp, e: e}
	client := func(tenant string) *gateway.Client { return gateway.NewClient(st.base, "tok-"+tenant) }
	for w := 0; w < sp.Writers; w++ {
		g.writers = append(g.writers, &writer{e: e})
	}
	for i := 0; i < sp.Tenants; i++ {
		name := "w" + strconv.Itoa(i)
		if sp.Tenants == 1 {
			// One tenant: the writers are the ranks of one run.
			for w, wr := range g.writers {
				wr.runs = append(wr.runs, &run{client: client(name), ns: name, name: "run", rank: w})
			}
			break
		}
		wr := g.writers[i%len(g.writers)]
		wr.runs = append(wr.runs, &run{client: client(name), ns: name, name: "run", rank: 0})
	}

	for w, wr := range g.writers {
		wr.turns = newCycle(seed^uint64(0x4000+w), len(wr.runs))
		wr.draws = newDraws(seed^uint64(0x1000+w), len(pool))
	}
	warm := newTally()
	var mu sync.Mutex
	merge := func(t *tally) {
		mu.Lock()
		warm.merge(t)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w, wr := range g.writers {
		wg.Add(1)
		go func(w int, wr *writer) {
			defer wg.Done()
			t := newTally()
			for i, r := range wr.runs {
				wr.save(t, r, time.Time{}, (w*len(wr.runs)+i)%len(pool), false)
			}
			merge(t)
		}(w, wr)
	}
	preload := make([][]acked, sp.PreloadRanks)
	for rank := range preload {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			t := newTally()
			r := &run{client: client("restart"), ns: "restart", name: "run", rank: rank, keepAll: true}
			w := &writer{e: e, runs: []*run{r}}
			for _, item := range preloadItems(sp, len(pool), seed, rank) {
				w.save(t, r, time.Time{}, item, false)
			}
			merge(t)
			preload[rank] = r.window
		}(rank)
	}
	wg.Wait()
	if warm.failed > 0 {
		st.close()
		return nil, fmt.Errorf("set-up: %d of %d operations failed: %v", warm.failed, warm.attempted, warm.fails)
	}
	for _, p := range preload {
		g.preload = append(g.preload, p...)
	}
	for i := 0; i < sp.Readers; i++ {
		g.readers = append(g.readers, &reader{e: e, set: g.preload, picks: newCycle(seed^uint64(0x3000+i), len(g.preload))})
	}
	return g, nil
}

// measure runs every actor of the rig for d and returns the merged tally
// and the wall time the actors took.
func (g *rig) measure(d time.Duration) (*tally, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	total := newTally()
	var mu sync.Mutex
	var wg sync.WaitGroup
	collect := func(t *tally) {
		mu.Lock()
		total.merge(t)
		mu.Unlock()
	}
	for i, w := range g.writers {
		wg.Add(1)
		go func(i int, w *writer) {
			defer wg.Done()
			t := newTally()
			if g.sp.Rate > 0 {
				// Writers interleave: writer i starts i/Rate late, so the
				// saves of all writers together are evenly spaced.
				phase := time.Duration(float64(i) / g.sp.Rate * float64(time.Second))
				w.runOpen(t, start.Add(phase), deadline, g.sp.Rate/float64(len(g.writers)))
			} else {
				w.runClosed(t, deadline)
			}
			collect(t)
		}(i, w)
	}
	for _, rd := range g.readers {
		wg.Add(1)
		go func(rd *reader) {
			defer wg.Done()
			t := newTally()
			rd.run(t, deadline)
			collect(t)
		}(rd)
	}
	wg.Wait()
	// The interval ends when the last actor finished, not at the deadline:
	// operations in flight at the deadline complete and count.
	total.start, total.length = start, time.Since(start)
	return total, total.length
}

// finish checks the end state through the bench-owned backing stores:
// every retained acked checkpoint is held at R copies, and nothing else
// is resident — every deleted or rolled-back checkpoint is gone.
func (g *rig) finish(t *tally) {
	want := make(map[iostore.Key]bool)
	check := func(a acked) {
		want[a.key()] = true
		inspect(g.e.st, t, a)
	}
	for _, w := range g.writers {
		for _, r := range w.runs {
			for _, a := range r.window {
				check(a)
			}
		}
	}
	for _, a := range g.preload {
		check(a)
	}
	keys, _ := g.e.st.residentKeys()
	for _, k := range keys {
		if !want[k] {
			t.fail("orphan_object")
		}
	}
}
