package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"ndpcr/internal/metrics"
	"ndpcr/internal/model"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/units"
)

// regSnap holds the Count/Sum readings of the gateway registry series the
// per-layer metrics of node, nvm and ndp come from. Only deltas between
// two snapshots are reported; no quantile is ever read from the registry.
type regSnap map[string]float64

// regHists and regCounters name the readings: a histogram contributes
// name.count and name.sum, a counter its value.
var regHists = map[string]metrics.Unit{
	"ndpcr_node_commit_seconds":        metrics.UnitSeconds,
	"ndpcr_node_commit_bytes":          metrics.UnitBytes,
	"ndpcr_node_restore_seconds":       metrics.UnitSeconds,
	"ndpcr_node_decompress_seconds":    metrics.UnitSeconds,
	"ndpcr_nvm_admission_wait_seconds": metrics.UnitSeconds,
	"ndpcr_ndp_drain_seconds":          metrics.UnitSeconds,
	"ndpcr_ndp_pause_wait_seconds":     metrics.UnitSeconds,
	"ndpcr_ndp_drain_in_bytes":         metrics.UnitBytes,
	"ndpcr_ndp_drain_out_bytes":        metrics.UnitBytes,
}

var regCounters = []string{
	`ndpcr_node_restores_total{level="local"}`,
	`ndpcr_node_restores_total{level="io"}`,
	`ndpcr_node_restores_total{level="partner"}`,
	`ndpcr_node_restores_total{level="erasure"}`,
	`ndpcr_node_restores_total{level="none"}`,
	"ndpcr_nvm_evictions_total",
	"ndpcr_nvm_admission_waits_total",
	"ndpcr_nvm_backpressure_total",
	"ndpcr_ndp_skipped_total",
	"ndpcr_ndp_drain_retries_total",
	"ndpcr_ndp_drain_errors_total",
}

func snapshot(reg *metrics.Registry) regSnap {
	s := regSnap{}
	for name, unit := range regHists {
		h := reg.Histogram(name, "", unit)
		s[name+".count"] = float64(h.Count())
		s[name+".sum"] = h.Sum()
	}
	for _, name := range regCounters {
		s[name] = float64(reg.Counter(name, "").Value())
	}
	// Error counters are labeled by code, so sum every series of the
	// family from the exposition.
	var buf bytes.Buffer
	reg.WriteProm(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "ndpcr_gateway_request_errors_total{") {
			if i := strings.LastIndexByte(line, ' '); i > 0 {
				v, _ := strconv.ParseFloat(line[i+1:], 64)
				s["gateway_errors"] += v
			}
		}
	}
	return s
}

func (s regSnap) delta(prev regSnap, name string) float64 { return s[name] - prev[name] }

// opFamily groups store calls the way the per-layer metrics report them.
func opFamily(op string) string {
	switch op {
	case "put", "put_block":
		return "put_block"
	case "get", "get_block":
		return "get_block"
	case "delete", "compress":
		return op
	}
	return "meta"
}

// busy is one layer × op family's work in the traced window.
type busy struct {
	calls, errors int64
	ns            float64
	bytes, out    int64
}

// tripStats accumulates the partitioned trips of one root kind.
type tripStats struct {
	n    int
	trip float64
	self [numLayers]float64
}

// analysis is the traced window, linked and partitioned.
type analysis struct {
	busy       map[string]*busy // "layer.family"
	trips      map[string]*tripStats
	mismatches int // trips whose layer self times do not sum to the trip
	unlinked   int // spans linked to no client operation (background work)
	parent     []int
	rootOf     []int
}

// linkKey matches a span to the call one layer out that caused it.
type linkKey struct {
	layer   layer
	key     iostore.Key
	op      string
	block   int
	backend int
}

// analyze links every span to the client operation it served and
// partitions each operation's trip among the layers. A store span links
// through its iostore.Key; a compress span through the save sequence
// stamped in its block; an iostore span to the enclosing iod call on the
// same backend, an iod call to the enclosing shard-tier call, and a
// shard-tier or compress span to the client operation on that key whose
// interval holds it.
func analyze(roots []root, spans []span) *analysis {
	a := &analysis{busy: map[string]*busy{}, trips: map[string]*tripStats{}}
	for _, s := range spans {
		k := layerNames[s.Layer] + "." + opFamily(s.Op)
		b := a.busy[k]
		if b == nil {
			b = &busy{}
			a.busy[k] = b
		}
		b.calls++
		b.ns += float64(s.End - s.Start)
		b.bytes += s.Bytes
		b.out += s.Out
		if s.Err {
			b.errors++
		}
	}

	seqKey := map[uint64]iostore.Key{}
	byKey := map[iostore.Key][]int{}
	for i, r := range roots {
		if r.Seq != 0 && r.Key.Job != "" {
			seqKey[r.Seq] = r.Key
		}
		byKey[r.Key] = append(byKey[r.Key], i)
	}
	rootAt := func(key iostore.Key, at int64) int {
		for _, i := range byKey[key] {
			if roots[i].Start <= at && at <= roots[i].End {
				return i
			}
		}
		return -1
	}
	index := map[linkKey][]int{}
	for i, s := range spans {
		if s.Layer == layerIOD || s.Layer == layerShardstore {
			lk := linkKey{s.Layer, s.Key, s.Op, s.Block, s.Backend}
			index[lk] = append(index[lk], i)
		}
	}
	enclosing := func(lk linkKey, s span) int {
		best, bestDur := -1, int64(math.MaxInt64)
		for _, j := range index[lk] {
			p := spans[j]
			if p.Start <= s.Start && s.End <= p.End && p.End-p.Start < bestDur {
				best, bestDur = j, p.End-p.Start
			}
		}
		return best
	}

	// parent[i] >= 0 is a span; -2-r is root r; -1 is unlinked.
	a.parent = make([]int, len(spans))
	for i, s := range spans {
		p := -1
		switch s.Layer {
		case layerIOStore:
			p = enclosing(linkKey{layerIOD, s.Key, s.Op, s.Block, s.Backend}, s)
		case layerIOD:
			p = enclosing(linkKey{layerShardstore, s.Key, s.Op, s.Block, -1}, s)
		}
		if p < 0 {
			key := s.Key
			if s.Layer == layerCompress {
				key = seqKey[s.Seq]
			}
			if r := rootAt(key, s.Start); key.Job != "" && r >= 0 {
				p = -2 - r
			}
		}
		a.parent[i] = p
	}
	a.rootOf = make([]int, len(spans))
	members := make([][]int, len(roots))
	for i := range spans {
		p := a.parent[i]
		for p >= 0 {
			p = a.parent[p]
		}
		a.rootOf[i] = -1
		if p <= -2 {
			a.rootOf[i] = -2 - p
			members[-2-p] = append(members[-2-p], i)
		} else {
			a.unlinked++
		}
	}

	for r, rt := range roots {
		if rt.Err {
			continue
		}
		nodes := []node{{layer: layerGateway, start: rt.Start, end: rt.End}}
		local := map[int]int{}
		for _, i := range members[r] {
			local[i] = len(nodes)
			nodes = append(nodes, node{layer: spans[i].Layer, start: spans[i].Start, end: spans[i].End})
		}
		for _, i := range members[r] {
			p := 0
			if a.parent[i] >= 0 {
				p = local[a.parent[i]]
			}
			nodes[p].children = append(nodes[p].children, local[i])
		}
		self := selfTimes(nodes, 0)
		ts := a.trips[rt.Kind]
		if ts == nil {
			ts = &tripStats{}
			a.trips[rt.Kind] = ts
		}
		trip := float64(rt.End - rt.Start)
		var sum float64
		for l, v := range self {
			ts.self[l] += v
			sum += v
		}
		if math.Abs(sum-trip) > 1000 {
			a.mismatches++
		}
		ts.n++
		ts.trip += trip
	}
	return a
}

func (a *analysis) get(k string) busy {
	if b := a.busy[k]; b != nil {
		return *b
	}
	return busy{}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerInput is everything the per-layer metrics are computed from.
type layerInput struct {
	a             *analysis
	before, after regSnap
	t             *tally // the traced window's client tally
	lateP99       float64
	overhead      float64
	storedBytes   int64
}

// layerMetrics computes the per-layer metrics of a traced run.
func layerMetrics(in layerInput) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	a := in.a
	d := func(name string) float64 { return in.after.delta(in.before, name) }
	const mb = 1e6

	for _, kind := range []struct{ name, root string }{{"save", "save"}, {"async", "async"}, {"restore", "load"}} {
		ts := a.trips[kind.root]
		if ts == nil {
			ts = &tripStats{}
		}
		per := func(v float64) float64 { return ratio(v, float64(ts.n)) / 1e6 }
		put("gateway."+kind.name+".self_ms", "ms", per(ts.self[layerGateway]))
		put("trip."+kind.name+".count", "count", float64(ts.n))
		put("trip."+kind.name+".ms", "ms", per(ts.trip))
		for l := layerCompress; l < numLayers; l++ {
			if l == layerCompress && kind.name == "restore" {
				continue // restores decompress inside the node, not through the wrapped codec
			}
			put("trip."+kind.name+"."+layerNames[l]+"_self_ms", "ms", per(ts.self[l]))
		}
	}
	put("trip.sum_mismatches", "count", float64(a.mismatches))
	put("trip.unlinked_spans", "count", float64(a.unlinked))
	put("gateway.errors", "count", d("gateway_errors"))

	commitN, commitS := d("ndpcr_node_commit_seconds.count"), d("ndpcr_node_commit_seconds.sum")
	commitB := d("ndpcr_node_commit_bytes.sum")
	put("node.commit.count", "count", commitN)
	put("node.commit.busy_s", "s", commitS)
	put("node.commit.mb_s", "MB/s", ratio(commitB/mb, commitS))
	put("node.restore.count", "count", d("ndpcr_node_restore_seconds.count"))
	put("node.restore.busy_s", "s", d("ndpcr_node_restore_seconds.sum"))
	put("node.decompress.busy_s", "s", d("ndpcr_node_decompress_seconds.sum"))
	var restores float64
	for _, l := range []string{"local", "io", "partner", "erasure", "none"} {
		restores += d(`ndpcr_node_restores_total{level="` + l + `"}`)
	}
	put("node.restore.local_ratio", "ratio", ratio(d(`ndpcr_node_restores_total{level="local"}`), restores))

	put("nvm.evictions", "count", d("ndpcr_nvm_evictions_total"))
	put("nvm.admission_waits", "count", d("ndpcr_nvm_admission_waits_total"))
	put("nvm.admission_wait_s", "s", d("ndpcr_nvm_admission_wait_seconds.sum"))
	put("nvm.backpressure", "count", d("ndpcr_nvm_backpressure_total"))

	drainN, drainS := d("ndpcr_ndp_drain_seconds.count"), d("ndpcr_ndp_drain_seconds.sum")
	put("ndp.drain.count", "count", drainN)
	put("ndp.drain.busy_s", "s", drainS)
	put("ndp.pause_wait_s", "s", d("ndpcr_ndp_pause_wait_seconds.sum"))
	put("ndp.skipped", "count", d("ndpcr_ndp_skipped_total"))
	put("ndp.retries", "count", d("ndpcr_ndp_drain_retries_total"))
	put("ndp.errors", "count", d("ndpcr_ndp_drain_errors_total"))
	inB := d("ndpcr_ndp_drain_in_bytes.sum")
	put("ndp.bytes_in", "bytes", inB)
	put("ndp.bytes_out", "bytes", d("ndpcr_ndp_drain_out_bytes.sum"))

	c := a.get("compress.compress")
	put("compress.calls", "count", float64(c.calls))
	put("compress.busy_s", "s", c.ns/1e9)
	put("compress.mb_s", "MB/s", ratio(float64(c.bytes)/mb, c.ns/1e9))
	put("compress.factor", "ratio", ratio(float64(c.bytes), float64(c.out)))

	for _, l := range []string{"shardstore", "iod", "iostore"} {
		for _, fam := range []string{"put_block", "get_block"} {
			b := a.get(l + "." + fam)
			put(l+"."+fam+".calls", "count", float64(b.calls))
			put(l+"."+fam+".busy_s", "s", b.ns/1e9)
			put(l+"."+fam+".bytes", "bytes", float64(b.bytes))
			if l != "iostore" {
				put(l+"."+fam+".errors", "count", float64(b.errors))
			}
		}
	}
	meta := a.get("shardstore.meta")
	put("shardstore.meta.calls", "count", float64(meta.calls))
	put("shardstore.meta.busy_s", "s", meta.ns/1e9)
	sp, ip := a.get("shardstore.put_block"), a.get("iod.put_block")
	put("shardstore.fanout_ratio", "ratio", ratio(float64(ip.calls), float64(sp.calls)))
	ig, sg := a.get("iod.get_block"), a.get("iostore.get_block")
	isp := a.get("iostore.put_block")
	put("iod.wire_s", "s", (ip.ns+ig.ns-isp.ns-sg.ns)/1e9)
	put("iostore.stored_bytes", "bytes", float64(in.storedBytes))

	put("bench.generator_late_p99_ms", "ms", in.lateP99)
	put("bench.trace_overhead_ratio", "ratio", in.overhead)

	// The paper's model (§6.1.1) fed with the layer rates measured above.
	p := model.DefaultParams()
	p.CompressionFactor = 1 - ratio(float64(c.out), float64(c.bytes))
	p.NDPCompressionRate = units.Bandwidth(ratio(float64(c.bytes), c.ns/1e9))
	p.LocalBW = units.Bandwidth(ratio(commitB, commitS))
	p.IOBW = units.Bandwidth(ratio(float64(sp.bytes), sp.ns/1e9))
	p.CheckpointSize = units.Bytes(ratio(inB, drainN))
	put("model.drain_pred_ms", "ms", modelMS(drainN > 0 && p.IOBW > 0 && p.NDPCompressionRate > 0, p.DrainTime))
	put("model.drain_meas_ms", "ms", ratio(drainS, drainN)*1e3)

	t := in.t
	r := p
	r.IOBW = units.Bandwidth(ratio(float64(sg.bytes), sg.ns/1e9))
	r.DecompressionRate = units.Bandwidth(ratio(float64(t.ioLoadBytes), d("ndpcr_node_decompress_seconds.sum")))
	r.CheckpointSize = units.Bytes(ratio(float64(t.ioLoadBytes), float64(len(t.ioLoadLat))))
	put("model.restore_io_pred_ms", "ms", modelMS(len(t.ioLoadLat) > 0 && r.IOBW > 0 && r.DecompressionRate > 0, r.RestoreIO))
	put("model.restore_io_meas_ms", "ms", mean(t.ioLoadLat))
	return m
}

func modelMS(ok bool, f func() units.Seconds) float64 {
	if !ok {
		return 0
	}
	return float64(f()) * 1e3
}

// sortedNames lists metric names in output order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func fmtMetric(name string, v metric) string {
	return fmt.Sprintf("%-40s %14.6g %s", name, v.Value, v.Unit)
}
