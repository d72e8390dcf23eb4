// Nbody: a gravitational N-body integrator checkpointed through the NDP
// runtime, demonstrating the drain pipeline's compression economics: the
// example reports how much network/storage volume the NDP's gzip(1)
// compression saved, and restarts the simulation from the I/O level after
// total node loss.
//
//	go run ./examples/nbody
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/stats"
)

type system struct {
	step          int
	pos, vel, mas []float64 // 3N, 3N, N
}

func newSystem(n int, seed uint64) *system {
	rng := stats.NewRNG(seed)
	s := &system{
		pos: make([]float64, 3*n),
		vel: make([]float64, 3*n),
		mas: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		// A disc of bodies with tangential velocities.
		r := 1 + 4*rng.Float64()
		th := 2 * math.Pi * rng.Float64()
		s.pos[3*i] = r * math.Cos(th)
		s.pos[3*i+1] = r * math.Sin(th)
		s.pos[3*i+2] = 0.1 * rng.Normal(0, 1)
		v := 0.3 / math.Sqrt(r)
		s.vel[3*i] = -v * math.Sin(th)
		s.vel[3*i+1] = v * math.Cos(th)
		s.mas[i] = 1.0 / float64(n)
	}
	return s
}

func (s *system) stepOnce() {
	const dt = 0.01
	const soft = 0.01
	n := len(s.mas)
	acc := make([]float64, 3*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var d [3]float64
			r2 := soft
			for k := 0; k < 3; k++ {
				d[k] = s.pos[3*j+k] - s.pos[3*i+k]
				r2 += d[k] * d[k]
			}
			inv := 1 / (r2 * math.Sqrt(r2))
			for k := 0; k < 3; k++ {
				acc[3*i+k] += s.mas[j] * d[k] * inv
				acc[3*j+k] -= s.mas[i] * d[k] * inv
			}
		}
	}
	for i := 0; i < 3*n; i++ {
		s.vel[i] += dt * acc[i]
		s.pos[i] += dt * s.vel[i]
	}
	s.step++
}

func (s *system) snapshot() []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, int64(s.step))
	for _, arr := range [][]float64{s.pos, s.vel, s.mas} {
		for _, v := range arr {
			binary.Write(&buf, binary.LittleEndian, math.Float64bits(v))
		}
	}
	return buf.Bytes()
}

func (s *system) restore(data []byte) error {
	r := bytes.NewReader(data)
	var step int64
	if err := binary.Read(r, binary.LittleEndian, &step); err != nil {
		return err
	}
	s.step = int(step)
	for _, arr := range [][]float64{s.pos, s.vel, s.mas} {
		for i := range arr {
			var bits uint64
			if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
				return err
			}
			arr[i] = math.Float64frombits(bits)
		}
	}
	return nil
}

func main() {
	bodies := flag.Int("bodies", 400, "number of bodies")
	steps := flag.Int("steps", 40, "integration steps")
	every := flag.Int("checkpoint-every", 8, "steps between checkpoints")
	flag.Parse()

	store := iostore.New(nvm.Pacer{})
	gz, _ := compress.Lookup("gzip", 1)
	n, err := node.New(node.Config{Job: "nbody", Store: store, Codec: gz, NDPWorkers: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer n.Close()

	sys := newSystem(*bodies, 7)
	var lastID uint64
	var rawBytes int64
	for s := 1; s <= *steps; s++ {
		sys.stepOnce()
		if s%*every == 0 {
			snap := sys.snapshot()
			id, err := n.Commit(context.Background(), snap, node.Metadata{Step: s})
			if err != nil {
				log.Fatal(err)
			}
			lastID = id
			rawBytes = int64(len(snap))
			fmt.Printf("step %3d: checkpoint %d committed (%d bytes raw)\n", s, id, len(snap))
		}
	}
	// Wait for the NDP to finish draining, then inspect what it shipped.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.WaitDurableCtx(ctx, lastID, ndp.LevelStore); err != nil {
		log.Fatalf("drain never completed: %v", err)
	}
	obj, ok, _ := store.Stat(context.Background(), iostore.Key{Job: "nbody", Rank: 0, ID: lastID})
	if !ok {
		log.Fatal("drained object missing")
	}
	full, _ := store.Get(context.Background(), obj.Key)
	fmt.Printf("\nNDP drained checkpoint %d with %s: %d -> %d bytes (factor %.1f%%)\n",
		lastID, obj.Codec, rawBytes, full.StoredSize(),
		compress.Factor(int(rawBytes), int(full.StoredSize()))*100)

	// Total node loss; restart from the I/O level.
	n.FailLocal()
	twin := newSystem(*bodies, 7)
	data, meta, level, err := n.Restore(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if err := twin.restore(data); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored from %s level at step %d; re-running %d lost steps\n",
		level, meta.Step, *steps-meta.Step)
	for twin.step < *steps {
		twin.stepOnce()
	}
	// The restarted trajectory must match the original bit for bit.
	for i := range sys.pos {
		if sys.pos[i] != twin.pos[i] {
			log.Fatalf("MISMATCH at body coordinate %d", i)
		}
	}
	fmt.Println("OK: restarted trajectory is bit-identical to the uninterrupted run")
}
