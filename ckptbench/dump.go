package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// maxDumpTrips caps the span dump: the first trips of the traced window
// with every span linked to them, plus every unlinked span.
const maxDumpTrips = 2000

// writeSpans writes the traced window as JSON lines: one object per trip
// (kind, key, start and end in ns since the tracer's epoch) and one per
// span, naming its parent span or trip.
func writeSpans(dir, workload string, seed uint64, roots []root, spans []span, a *analysis) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, r := range roots {
		if i >= maxDumpTrips {
			break
		}
		enc.Encode(map[string]any{"trip": i, "kind": r.Kind, "key": r.Key.String(), "start": r.Start, "end": r.End, "err": r.Err})
	}
	for i, s := range spans {
		if r := a.rootOf[i]; r >= maxDumpTrips {
			continue
		}
		rec := map[string]any{"span": i, "layer": layerNames[s.Layer], "op": s.Op, "start": s.Start, "end": s.End,
			"bytes": s.Bytes, "trip": a.rootOf[i]}
		if s.Key.Job != "" {
			rec["key"] = s.Key.String()
		}
		if s.Backend >= 0 {
			rec["backend"] = s.Backend
		}
		if s.Block >= 0 {
			rec["block"] = s.Block
		}
		if p := a.parent[i]; p >= 0 {
			rec["parent"] = p
		}
		if s.Err {
			rec["err"] = true
		}
		enc.Encode(rec)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
