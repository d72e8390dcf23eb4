package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ndpcr/internal/miniapps"
)

// stampEvery is the stride of the per-save stamps: ndp's default drain
// BlockSize, which the gateway keeps. A stamp at the head of every block
// lets the codec wrapper of a traced run tell which save a compressed
// block belongs to, and makes every saved payload unique, so a restore is
// compared against exactly the bytes of its own save.
const stampEvery = 1 << 20

// stampLen is the stamp size: magic, save sequence, block index.
const stampLen = 16

var stampMagic = [4]byte{'N', 'D', 'P', 'B'}

// splitmix64 is the benchmark's seed mixer: every input is derived from
// the workload seed through it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a seeded splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// cycle deals 0..n-1 in seeded shuffled rounds, each index once per
// round: the seed sets the order of a run's inputs, not their mix.
type cycle struct {
	r    rng
	n    int
	perm []int
}

func newCycle(seed uint64, n int) cycle { return cycle{r: rng{s: splitmix64(seed)}, n: n} }

func (c *cycle) next() int {
	if len(c.perm) == 0 {
		c.perm = make([]int, c.n)
		for i := range c.perm {
			c.perm[i] = i
		}
		for i := c.n - 1; i > 0; i-- {
			j := c.r.intn(i + 1)
			c.perm[i], c.perm[j] = c.perm[j], c.perm[i]
		}
	}
	v := c.perm[0]
	c.perm = c.perm[1:]
	return v
}

// bulkApps are the Medium mini-app checkpoints of the bulk pool, with how
// many seeded variants of each: 0.8–5 MB each, with gzip(1) factors from
// 1.0× (miniSmac) to 3.6× (miniAero). The count is odd, so that with every
// item equally often in a run the median of a latency lands inside one
// item's mode rather than in the gap between two apps'.
var bulkApps = []struct {
	name     string
	variants int
}{{"CoMD", 2}, {"miniMD", 2}, {"miniAero", 3}, {"miniSmac", 2}}

// bulkPool generates the bulk pool, each checkpoint from a seed-derived
// app seed and step count.
func bulkPool(seed uint64) ([][]byte, error) {
	var pool [][]byte
	for _, a := range bulkApps {
		for v := 0; v < a.variants; v++ {
			appSeed := splitmix64(seed ^ uint64(len(pool)+1))
			app, err := miniapps.New(a.name, miniapps.Medium, appSeed)
			if err != nil {
				return nil, err
			}
			for s := 0; s < 1+int(appSeed%3); s++ {
				if err := app.Step(); err != nil {
					return nil, fmt.Errorf("%s step: %w", a.name, err)
				}
			}
			var buf bytes.Buffer
			if err := app.Checkpoint(&buf); err != nil {
				return nil, fmt.Errorf("%s checkpoint: %w", a.name, err)
			}
			pool = append(pool, buf.Bytes())
		}
	}
	return pool, nil
}

// smallPool cuts perItem size-byte windows out of every bulk pool item,
// evenly spaced with a seeded jitter: small checkpoints with real
// mini-app content, in a mix of apps (and so of compressibility) that the
// seed does not change.
func smallPool(bulk [][]byte, seed uint64, perItem, size int) [][]byte {
	r := rng{s: seed ^ 0x5a11}
	var out [][]byte
	for _, src := range bulk {
		stride := (len(src) - size) / perItem
		for j := 0; j < perItem; j++ {
			off := j*stride + r.intn(stride/2+1)&^7
			out = append(out, src[off:off+size])
		}
	}
	return out
}

// stamp copies item into buf (grown as needed) and stamps the head of
// every stampEvery block with the save sequence seq.
func stamp(buf, item []byte, seq uint64) []byte {
	buf = append(buf[:0], item...)
	for off, blk := 0, 0; off < len(buf); off, blk = off+stampEvery, blk+1 {
		if len(buf)-off < stampLen {
			break
		}
		putStamp(buf[off:], seq, blk)
	}
	return buf
}

func putStamp(b []byte, seq uint64, blk int) {
	copy(b, stampMagic[:])
	binary.LittleEndian.PutUint64(b[4:], seq)
	binary.LittleEndian.PutUint32(b[12:], uint32(blk))
}

// readStamp decodes the stamp at the head of b, if any.
func readStamp(b []byte) (seq uint64, blk int, ok bool) {
	if len(b) < stampLen || !bytes.Equal(b[:4], stampMagic[:]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(b[4:]), int(binary.LittleEndian.Uint32(b[12:])), true
}

// matches reports whether got is exactly stamp(item, seq), without
// materializing the expected bytes.
func matches(got, item []byte, seq uint64) bool {
	if len(got) != len(item) {
		return false
	}
	var want [stampLen]byte
	for off, blk := 0, 0; off < len(item); off, blk = off+stampEvery, blk+1 {
		end := off + stampEvery
		if end > len(item) {
			end = len(item)
		}
		body := off
		if end-off >= stampLen {
			putStamp(want[:], seq, blk)
			if !bytes.Equal(got[off:off+stampLen], want[:]) {
				return false
			}
			body += stampLen
		}
		if !bytes.Equal(got[body:end], item[body:end]) {
			return false
		}
	}
	return true
}
