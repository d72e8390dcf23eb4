package study

import (
	"sync"
	"testing"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/miniapps"
)

func TestMeasureScalingValidation(t *testing.T) {
	gz, _ := compress.Lookup("gzip", 1)
	if _, err := MeasureScaling("HPCCG", miniapps.Small, gz, nil, 1, 1); err == nil {
		t.Error("empty worker list accepted")
	}
	if _, err := MeasureScaling("HPCCG", miniapps.Small, gz, []int{0}, 1, 1); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := MeasureScaling("bogus", miniapps.Small, gz, []int{1}, 1, 1); err == nil {
		t.Error("bogus app accepted")
	}
}

func TestMeasureScalingReportsSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// GOMAXPROCS overstates a shared host's real parallelism, so measure
	// what the host itself delivers before holding the codec to the bar.
	const bar = 1.15
	if raw := rawSpinSpeedup(); raw < bar {
		t.Skipf("host calibration: two goroutines spinning reach %.2fx of one, below the %.2fx bar", raw, bar)
	}
	// bwz is CPU-bound enough that parallelism must show. The assertion is
	// deliberately loose: scaling exists, not that it is linear. The input
	// must span several of the parallel codec's 1 MB blocks, or a second
	// worker has nothing to do: miniMD Medium is about 2 MB.
	bw, _ := compress.Lookup("bwz", 1)
	pts, err := MeasureScaling("miniMD", miniapps.Medium, bw, []int{1, 2}, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Workers != 1 || pts[0].Speedup != 1 {
		t.Errorf("baseline point = %+v", pts[0])
	}
	if pts[1].Speed <= 0 {
		t.Fatalf("no throughput measured: %+v", pts[1])
	}
	if pts[1].Speedup < bar {
		// A shared host's parallelism can drop mid-test; only a host that
		// still reaches the bar on its own counts the shortfall.
		if raw := rawSpinSpeedup(); raw < bar {
			t.Skipf("host calibration: two goroutines spinning fell to %.2fx of one during the measurement (codec %.2fx), below the %.2fx bar",
				raw, pts[1].Speedup, bar)
		}
		t.Errorf("2 workers gave %.2fx speedup; expected >%.2fx", pts[1].Speedup, bar)
	}
}

// spinSink keeps the calibration loop's result live.
var spinSink uint64

// spin runs a fixed amount of pure CPU work.
func spin() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// rawSpinSpeedup is the host's raw parallel speedup for two CPU-bound
// goroutines: twice the work of one spin in the time two concurrent spins
// take, best of three to damp scheduler noise.
func rawSpinSpeedup() float64 {
	best := 0.0
	for r := 0; r < 3; r++ {
		start := time.Now()
		spinSink += spin()
		one := time.Since(start)

		var mu sync.Mutex
		var wg sync.WaitGroup
		start = time.Now()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := spin()
				mu.Lock()
				spinSink += x
				mu.Unlock()
			}()
		}
		wg.Wait()
		if s := 2 * one.Seconds() / time.Since(start).Seconds(); s > best {
			best = s
		}
	}
	return best
}
