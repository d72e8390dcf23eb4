package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostInfo is the calibration block recorded with every result, so a run
// is only ever compared against runs from the same host.
type hostInfo struct {
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	SpinSpeedup  float64 `json:"spin_speedup"`
	TimerGrainNs float64 `json:"timer_grain_ns"`
	GoVersion    string  `json:"go_version"`
	Source       string  `json:"source"`
}

func calibrate(root string) hostInfo {
	return hostInfo{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		SpinSpeedup:  spinSpeedup(),
		TimerGrainNs: timerGrain(),
		GoVersion:    runtime.Version(),
		Source:       sourceDigest(root),
	}
}

// spin burns a fixed amount of CPU and returns a value the compiler cannot
// discard.
func spin(iters int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

var spinSink uint64

// spinSpeedup measures how many cores actually run in parallel: the
// speedup of two goroutines spinning the same work at once over one doing
// it alone (2.0 on two idle cores). It is the best of three tries, each
// timing 2×iters of work both ways.
func spinSpeedup() float64 {
	const iters = 30_000_000
	best := 0.0
	for try := 0; try < 3; try++ {
		t0 := time.Now()
		spinSink += spin(iters)
		spinSink += spin(iters)
		serial := time.Since(t0)

		var wg sync.WaitGroup
		var mu sync.Mutex
		t1 := time.Now()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v := spin(iters)
				mu.Lock()
				spinSink += v
				mu.Unlock()
			}()
		}
		wg.Wait()
		if s := serial.Seconds() / time.Since(t1).Seconds(); s > best {
			best = s
		}
	}
	return best
}

// timerGrain is the smallest nonzero step time.Now was seen to take.
func timerGrain() float64 {
	best := time.Duration(1 << 62)
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		t1 := time.Now()
		for t1.Equal(t0) {
			t1 = time.Now()
		}
		if d := t1.Sub(t0); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds())
}

// sourceDigest fingerprints the program under test: a SHA-256 over every
// .go file and go.mod of the tree at root, by relative path. The benchmark
// runs from plain checkouts that carry no version-control metadata, so the
// digest stands in for the commit.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, rel+"\x00")
		if fh, err := os.Open(f); err == nil {
			io.Copy(h, fh)
			fh.Close()
		}
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / 1e6
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
