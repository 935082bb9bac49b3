package main

import (
	"bytes"
	"fmt"
	"os"
	"syscall"
	"time"
)

// processCPU returns the CPU time (user + system) the process has used
// so far, over all its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// statm is /proc/self/statm, held open so a sample costs one read.
// The benchmark does not start without it: peak_rss_mb is always the
// sampled current resident set size, never the process high-water mark.
var statm, statmErr = os.Open("/proc/self/statm")

var pageSize = float64(os.Getpagesize())

// residentBytes returns the process's current resident set size. It
// allocates nothing, so sampling does not move the allocation counts.
func residentBytes() float64 {
	var buf [128]byte
	n, err := statm.ReadAt(buf[:], 0)
	// The fields are size, resident, shared, ... in pages.
	i := bytes.IndexByte(buf[:n], ' ')
	if i < 0 {
		panic(fmt.Sprintf("read /proc/self/statm: %q, %v", buf[:n], err))
	}
	pages := 0.0
	for _, c := range buf[i+1 : n] {
		if c < '0' || c > '9' {
			break
		}
		pages = 10*pages + float64(c-'0')
	}
	return pages * pageSize
}
