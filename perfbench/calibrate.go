package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// calRef is the calibration's wall time on the reference box (2 shared
// vCPUs, go1.24.0), and calRefCPU its CPU time per calibrating core
// there. Wall times are scaled by calRef over the median calibration
// wall time of the run, and CPU times by calRefCPU over the median
// calibration CPU time per core, so a box running faster or slower for
// a while, as a shared host does, moves the calibration and the rounds
// together and the reported figure stays put; on the reference box the
// scaled figures read close to the raw ones. CPU time is scaled by CPU
// time so that the time other tenants hold a core stays out of cpu_s.
const (
	calRef    = 150 * time.Millisecond
	calRefCPU = 130 * time.Millisecond
)

// calWords is the size of the calibration's sort input (1 MiB of
// uint32, about the simulator's L2-resident working set).
const calWords = 1 << 18

// calScratch is one calibrating goroutine's buffers. They are mapped
// outside the Go heap once, so that a calibration allocates nothing,
// leaves the collector alone and adds nothing to retained_heap_mb.
type calScratch struct {
	buf   []uint32
	table []uint32
	sink  uint32
}

var (
	calOnce sync.Once
	calBufs []*calScratch
	calErr  error
)

// mapWords maps n zeroed uint32 words outside the Go heap.
func mapWords(n int) ([]uint32, error) {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n), nil
}

// calibrate runs a fixed task on width cores at once (the cores the
// workload keeps busy): it sorts a pseudo-random array and inserts into
// an open-addressing table, the branchy, cache-bound mix a simulator is
// made of. It runs code of the benchmark and the standard library only,
// so that no change to the program moves it. It returns the wall time
// and the CPU time per calibrating core.
func calibrate(width int) (wall, cpu time.Duration, err error) {
	calOnce.Do(func() {
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			s := &calScratch{}
			if s.buf, calErr = mapWords(calWords); calErr != nil {
				return
			}
			if s.table, calErr = mapWords(1 << 16); calErr != nil {
				return
			}
			calBufs = append(calBufs, s)
		}
		// A first pass faults the mapped pages in, untimed.
		runCalibration(calBufs)
	})
	if calErr != nil {
		return 0, 0, fmt.Errorf("calibration buffers: %w", calErr)
	}
	bufs := calBufs[:min(width, len(calBufs))]
	t, c := time.Now(), cpuTime()
	runCalibration(bufs)
	return time.Since(t), (cpuTime() - c) / time.Duration(len(bufs)), nil
}

func runCalibration(bufs []*calScratch) {
	var wg sync.WaitGroup
	for _, s := range bufs {
		wg.Add(1)
		go func(s *calScratch) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				x := uint32(2463534242)
				for i := range s.buf {
					x ^= x << 13
					x ^= x >> 17
					x ^= x << 5
					s.buf[i] = x
				}
				slices.Sort(s.buf)
				clear(s.table)
				mask := uint32(len(s.table) - 1)
				for _, x := range s.buf[:len(s.table)/2] {
					v := x | 1
					for h := (x * 2654435761) >> 16 & mask; ; h = (h + 1) & mask {
						if s.table[h] == 0 || s.table[h] == v {
							s.table[h] = v
							break
						}
					}
				}
				s.sink += s.table[rep]
			}
		}(s)
	}
	wg.Wait()
}
