// Heatsim: a 2D heat-diffusion solver decomposed across four ranks with
// halo exchange, surviving injected node failures via coordinated
// checkpoint/restart with NDP drains — the paper's deployment scenario in
// miniature. The run is verified against a failure-free reference.
//
//	go run ./examples/heatsim
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math"

	"ndpcr/internal/cluster"
	"ndpcr/internal/compress"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/stats"
)

const (
	gridN = 128 // global grid is gridN × gridN
	ranks = 4   // row-block decomposition
	alpha = 0.2 // diffusion coefficient × dt / h²
)

// rank owns a horizontal strip of the grid plus two halo rows.
type rank struct {
	id   int
	rows int
	step int
	grid [][]float64 // rows+2 × gridN, rows 0 and rows+1 are halos
}

func newRank(id int) *rank {
	r := &rank{id: id, rows: gridN / ranks}
	r.grid = make([][]float64, r.rows+2)
	for i := range r.grid {
		r.grid[i] = make([]float64, gridN)
	}
	// A hot square in the middle of the global domain.
	for gi := 0; gi < r.rows; gi++ {
		global := id*r.rows + gi
		for j := 0; j < gridN; j++ {
			if global > gridN/3 && global < 2*gridN/3 && j > gridN/3 && j < 2*gridN/3 {
				r.grid[gi+1][j] = 100
			}
		}
	}
	return r
}

// exchangeHalos swaps boundary rows between neighbouring ranks.
func exchangeHalos(rs []*rank) {
	for i, r := range rs {
		if i > 0 {
			copy(r.grid[0], rs[i-1].grid[rs[i-1].rows])
		} else {
			for j := range r.grid[0] {
				r.grid[0][j] = 0 // fixed cold boundary
			}
		}
		if i < len(rs)-1 {
			copy(r.grid[r.rows+1], rs[i+1].grid[1])
		} else {
			for j := range r.grid[r.rows+1] {
				r.grid[r.rows+1][j] = 0
			}
		}
	}
}

// step advances one explicit diffusion step (halos must be current).
func (r *rank) stepOnce() {
	next := make([][]float64, r.rows+2)
	for i := range next {
		next[i] = make([]float64, gridN)
		copy(next[i], r.grid[i])
	}
	for i := 1; i <= r.rows; i++ {
		for j := 0; j < gridN; j++ {
			left, right := 0.0, 0.0
			if j > 0 {
				left = r.grid[i][j-1]
			}
			if j < gridN-1 {
				right = r.grid[i][j+1]
			}
			next[i][j] = r.grid[i][j] + alpha*(r.grid[i-1][j]+r.grid[i+1][j]+left+right-4*r.grid[i][j])
		}
	}
	r.grid = next
	r.step++
}

// Snapshot / Restore implement cluster.Rank.
func (r *rank) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, int64(r.step))
	for i := 1; i <= r.rows; i++ {
		for _, v := range r.grid[i] {
			binary.Write(&buf, binary.LittleEndian, math.Float64bits(v))
		}
	}
	return buf.Bytes(), nil
}

func (r *rank) Restore(data []byte) error {
	buf := bytes.NewReader(data)
	var step int64
	if err := binary.Read(buf, binary.LittleEndian, &step); err != nil {
		return err
	}
	r.step = int(step)
	for i := 1; i <= r.rows; i++ {
		for j := 0; j < gridN; j++ {
			var bits uint64
			if err := binary.Read(buf, binary.LittleEndian, &bits); err != nil {
				return err
			}
			r.grid[i][j] = math.Float64frombits(bits)
		}
	}
	return nil
}

func (r *rank) heat() float64 {
	sum := 0.0
	for i := 1; i <= r.rows; i++ {
		for _, v := range r.grid[i] {
			sum += v
		}
	}
	return sum
}

// run executes `steps` diffusion steps, checkpointing every `every`, with
// one-shot failures injected at the given steps (rank chosen by the RNG).
// With partner enabled, checkpoints also replicate to the buddy node
// (§3.4's partner level), letting recoveries avoid the slow I/O path;
// with erasure enabled they are XOR-coded into redundancy sets held
// outside each rank's group instead. It returns the final total heat.
func run(steps, every int, failAt map[int]bool, seed uint64, partner, erasure bool) float64 {
	// Copy: each failure fires once, or the rollback would re-trigger it
	// on re-execution forever.
	failures := make(map[int]bool, len(failAt))
	for s := range failAt {
		failures[s] = true
	}
	rs := make([]*rank, ranks)
	for i := range rs {
		rs[i] = newRank(i)
	}
	store := iostore.New(nvm.Pacer{})
	gz, _ := compress.Lookup("gzip", 1)
	nodes := make([]*node.Node, ranks)
	rankIfaces := make([]cluster.Rank, ranks)
	for i := range rs {
		var err error
		nodes[i], err = node.New(node.Config{Job: "heat", Rank: i, Store: store, Codec: gz})
		if err != nil {
			log.Fatal(err)
		}
		rankIfaces[i] = rs[i]
	}
	var opts []cluster.Option
	if partner {
		opts = append(opts, cluster.WithPartnerReplication())
	}
	if erasure {
		opts = append(opts, cluster.WithErasureSets(2, 1))
	}
	c, err := cluster.New("heat", store, nodes, rankIfaces, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	rng := stats.NewRNG(seed)
	recovered := 0
	for s := 1; s <= steps; {
		exchangeHalos(rs)
		for _, r := range rs {
			r.stepOnce()
		}
		if s%every == 0 {
			if _, err := c.Checkpoint(context.Background(), s, ndp.LevelErasure); err != nil {
				log.Fatal(err)
			}
		}
		if failures[s] {
			delete(failures, s)
			victim := rng.Intn(ranks)
			if err := c.FailNode(victim); err != nil {
				log.Fatal(err)
			}
			out, err := c.Recover(context.Background(), cluster.RecoverOptions{})
			if err != nil {
				log.Fatal(err)
			}
			recovered++
			fmt.Printf("  step %3d: rank %d failed; recovered all ranks to step %d (rank %d via %s)\n",
				s, victim, out.Step, victim, out.Levels[victim])
			s = out.Step + 1
			continue
		}
		s++
	}
	if len(failures) > 0 {
		fmt.Printf("  survived %d failures\n", recovered)
	}
	total := 0.0
	for _, r := range rs {
		total += r.heat()
	}
	return total
}

func main() {
	steps := flag.Int("steps", 60, "diffusion steps")
	every := flag.Int("checkpoint-every", 5, "steps between coordinated checkpoints")
	partner := flag.Bool("partner", false, "replicate checkpoints to the buddy node (partner level)")
	erasure := flag.Bool("erasure", false, "XOR-code checkpoints into redundancy sets (erasure level)")
	flag.Parse()

	fmt.Println("reference run (no failures):")
	ref := run(*steps, *every, nil, 1, *partner, *erasure)

	fmt.Println("faulty run (failures at steps 17 and 41):")
	got := run(*steps, *every, map[int]bool{17: true, 41: true}, 1, *partner, *erasure)

	fmt.Printf("\nfinal heat: reference %.6f, with failures %.6f\n", ref, got)
	if math.Abs(ref-got) > 1e-9*math.Abs(ref) {
		log.Fatal("MISMATCH: recovery changed the result")
	}
	fmt.Println("OK: bit-equivalent result despite failures")
}
