package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU returns the calling OS thread's CPU time (Linux).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// The host-speed reference. On a shared host the same simulation runs
// at speeds up to 1.6x apart from one second to the next, in CPU time as
// much as in wall time, because the cores, caches and clock are shared
// with other tenants. The benchmark therefore reports speeds relative
// to a fixed reference kernel timed on the same thread right beside
// each measurement: a branchy, dispatch-heavy bytecode loop over a
// 256 KiB table, like the simulator's own hot loops but none of its
// code, so no change to the simulator can move it.

// refNominal is the reference kernel's CPU time on an unloaded host
// (Intel Xeon, 2 vCPUs); a host factor of 1 means the host ran the
// reference that fast. Its value only sets the scale of the normalized
// metrics.
const refNominal = 2600 * time.Microsecond

var (
	refTable = make([]uint64, 1<<15)
	refProg  = [16]uint8{0, 1, 2, 3, 1, 4, 2, 0, 3, 4, 1, 2, 0, 0, 3, 1}
	refSink  uint64
)

// refKernel runs the reference's fixed amount of work.
func refKernel() {
	const mask = 1<<15 - 1
	var r [4]uint64
	r[0] = 12345
	pc := 0
	for i := 0; i < 1<<19; i++ {
		switch refProg[pc] {
		case 0:
			r[1] += r[0] ^ (r[1] >> 3)
		case 1:
			r[2] = refTable[(r[1]>>5)&mask]
		case 2:
			refTable[(r[2]+r[0])&mask] = r[1]
		case 3:
			if r[1]&4 == 0 {
				r[0] = r[0]*6364136223846793005 + 1
			} else {
				r[3]++
			}
		case 4:
			r[0] += r[2] + r[3]
		}
		pc = (pc + 1 + int(r[0]&1)) & 15
	}
	refSink += r[0]
}

// hostFactor runs the reference once on the calling goroutine's thread
// and returns its CPU time over refNominal: 1.3 means the host is
// running 30% slower than the nominal host. Speeds are multiplied by
// it, times divided by it.
func hostFactor() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	refKernel()
	return float64(threadCPU()-start) / float64(refNominal)
}

// allocCounter reads the cumulative bytes the Go heap has allocated.
// Reading it neither allocates nor stops the world.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (a *allocCounter) bytes() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// liveHeap collects garbage and returns the heap left live. A peak of
// it, unlike a peak of the heap in use, does not depend on when
// collections happen to run.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hostInfo describes the machine and build a record was measured on.
type hostInfo struct {
	CPUModel    string `json:"cpu_model"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified string `json:"vcs_modified"`
}

func readHostInfo() hostInfo {
	h := hostInfo{
		CPUModel:    "unknown",
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		VCSRevision: "unknown",
		VCSModified: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.VCSRevision = s.Value
			case "vcs.modified":
				h.VCSModified = s.Value
			}
		}
	}
	return h
}
