package main

import (
	"math"
	"testing"

	"ndpcr/internal/node/iostore"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// TestSelfTimesFanOut: a 100 ns trip whose shard-tier call [10,90] fans
// out to two overlapping iod calls ([20,80] and [30,70]), each holding an
// iostore call. Every instant goes to the innermost active spans, split
// evenly, so the layers sum to the trip.
func TestSelfTimesFanOut(t *testing.T) {
	nodes := []node{
		{layer: layerGateway, start: 0, end: 100, children: []int{1}},
		{layer: layerShardstore, start: 10, end: 90, children: []int{2, 3}},
		{layer: layerIOD, start: 20, end: 80, children: []int{4}},
		{layer: layerIOD, start: 30, end: 70, children: []int{5}},
		{layer: layerIOStore, start: 40, end: 50},
		{layer: layerIOStore, start: 45, end: 60},
	}
	self := selfTimes(nodes, 0)
	var sum float64
	for _, v := range self {
		sum += v
	}
	if !near(sum, 100) {
		t.Fatalf("layers sum to %v, want the 100 ns trip: %v", sum, self)
	}
	// gateway: [0,10) + (90,100] = 20. shardstore: [10,20) + (80,90] = 20.
	// iod and iostore share [20,80): iod alone at [20,30) and [70,80);
	// [30,40) two iod; [40,45) iostore(a)+iod(b); [45,50) both iostore;
	// [50,60) iod(a)+iostore(b); [60,70) two iod.
	want := map[layer]float64{
		layerGateway:    20,
		layerShardstore: 20,
		layerIOD:        10 + 10 + 10 + 2.5 + 5 + 10,
		layerIOStore:    2.5 + 5 + 5,
	}
	for l, w := range want {
		if !near(self[l], w) {
			t.Errorf("%s self = %v, want %v", layerNames[l], self[l], w)
		}
	}
}

// TestSelfTimesWindowedSends: compression of block 1 overlaps the store
// write of block 0, as the NDP pipeline does; a child that outlives the
// trip is clipped to it.
func TestSelfTimesWindowedSends(t *testing.T) {
	nodes := []node{
		{layer: layerGateway, start: 0, end: 100, children: []int{1, 2, 3, 4}},
		{layer: layerCompress, start: 10, end: 40},
		{layer: layerShardstore, start: 40, end: 70},
		{layer: layerCompress, start: 40, end: 60},
		{layer: layerShardstore, start: 60, end: 120},
	}
	self := selfTimes(nodes, 0)
	// [0,10) gateway; [10,40) compress0; [40,60) shard0 and compress1
	// split; [60,70) shard0 and shard1 split; [70,100] shard1 (clipped).
	want := map[layer]float64{
		layerGateway:    10,
		layerCompress:   30 + 10,
		layerShardstore: 10 + 10 + 30,
	}
	var sum float64
	for l, v := range self {
		sum += v
		if w, ok := want[layer(l)]; ok && !near(v, w) {
			t.Errorf("%s self = %v, want %v", layerNames[l], v, w)
		}
	}
	if !near(sum, 100) {
		t.Fatalf("layers sum to %v, want 100", sum)
	}
}

// TestSelfTimesNoChildren: a span with no children keeps its whole
// duration; a child covering the parent takes all of it.
func TestSelfTimesNoChildren(t *testing.T) {
	self := selfTimes([]node{{layer: layerGateway, start: 5, end: 25}}, 0)
	if !near(self[layerGateway], 20) {
		t.Errorf("leaf self = %v", self[layerGateway])
	}
	self = selfTimes([]node{
		{layer: layerGateway, start: 0, end: 10, children: []int{1}},
		{layer: layerIOD, start: 0, end: 10},
	}, 0)
	if self[layerGateway] != 0 || !near(self[layerIOD], 10) {
		t.Errorf("covered parent: %v", self)
	}
}

// TestAnalyzeLinks builds one save trip as the wrappers record it and
// checks every span links to it: the compress span through its stamp, the
// shard-tier call through its key, the R=2 iod calls to the shard call,
// and each iostore call to the iod call on its own backend.
func TestAnalyzeLinks(t *testing.T) {
	key := iostore.Key{Job: "ns/a/run", Rank: 0, ID: 7}
	roots := []root{
		{Kind: "save", Key: key, Seq: 99, Start: 0, End: 100},
		{Kind: "load", Key: key, Start: 200, End: 300},
	}
	spans := []span{
		{Layer: layerCompress, Op: "compress", Seq: 99, Backend: -1, Block: 0, Start: 10, End: 30, Bytes: 100, Out: 50},
		{Layer: layerShardstore, Op: "put_block", Key: key, Backend: -1, Block: 0, Start: 30, End: 90, Bytes: 50},
		{Layer: layerIOD, Op: "put_block", Key: key, Backend: 0, Block: 0, Start: 31, End: 85, Bytes: 50},
		{Layer: layerIOD, Op: "put_block", Key: key, Backend: 2, Block: 0, Start: 32, End: 88, Bytes: 50},
		{Layer: layerIOStore, Op: "put_block", Key: key, Backend: 2, Block: 0, Start: 40, End: 50, Bytes: 50},
		{Layer: layerIOStore, Op: "put_block", Key: key, Backend: 0, Block: 0, Start: 41, End: 45, Bytes: 50},
		{Layer: layerShardstore, Op: "get_block", Key: key, Backend: -1, Block: 0, Start: 210, End: 290},
		{Layer: layerIOD, Op: "keys", Backend: 1, Block: -1, Start: 400, End: 410},
	}
	a := analyze(roots, spans)
	wantParent := []int{-2, -2, 1, 1, 3, 2, -3, -1}
	for i, p := range wantParent {
		if a.parent[i] != p {
			t.Errorf("span %d (%s %s) parent = %d, want %d", i, layerNames[spans[i].Layer], spans[i].Op, a.parent[i], p)
		}
	}
	if a.unlinked != 1 || a.mismatches != 0 {
		t.Errorf("unlinked=%d mismatches=%d", a.unlinked, a.mismatches)
	}
	save := a.trips["save"]
	var sum float64
	for _, v := range save.self {
		sum += v
	}
	if save.n != 1 || !near(sum, 100) {
		t.Errorf("save trip: n=%d layers sum %v", save.n, sum)
	}
	if got := a.get("iod.put_block").calls; got != 2 {
		t.Errorf("iod put calls = %d", got)
	}
}
