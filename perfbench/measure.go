package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapMB forces a GC and returns the live Go heap it found (the bytes it
// marked reachable, from runtime/metrics), in MiB. A GC the runtime starts
// itself can fall anywhere in a run and counts what is allocated while it
// marks, so the benchmark reads the heap only through this, at a fixed point
// of work.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// calibrate times a fixed integer and floating-point kernel and returns the
// median of five runs in nanoseconds, so results from different machines can
// be put side by side.
func calibrate() float64 {
	var runs []float64
	sink := 0.0
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x, f := uint64(88172645463325252), 1.0
		for i := 0; i < 1<<20; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			f = f*0.999999 + float64(x&1023)*1e-6
		}
		runs = append(runs, float64(time.Since(t0).Nanoseconds()))
		sink += f
	}
	if sink == 0 {
		runs = append(runs, 0)
	}
	return median(runs)
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// machineLine is the machine record printed with every result.
func machineLine(calibrationNs float64) string {
	return "machine nproc=" + itoa(runtime.NumCPU()) +
		" gomaxprocs=" + itoa(runtime.GOMAXPROCS(0)) +
		" go=" + runtime.Version() +
		" cpu=\"" + cpuModel() + "\"" +
		" bench.calibration_ns=" + ftoa(calibrationNs)
}
