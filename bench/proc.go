package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is a reading of the whole-process counters.
type procSnap struct {
	cpu     time.Duration // user + system, from getrusage
	alloc   uint64        // cumulative bytes allocated
	mallocs uint64        // cumulative objects allocated
	gc      uint32        // completed GC cycles
}

func readProc() procSnap {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gc:      ms.NumGC,
	}
}

// procDelta is what the process spent between two readings.
type procDelta struct {
	cpu     time.Duration
	allocKB float64
	mallocs float64
	gc      float64
}

func (a procSnap) since(b procSnap) procDelta {
	return procDelta{
		cpu:     a.cpu - b.cpu,
		allocKB: float64(a.alloc-b.alloc) / 1024,
		mallocs: float64(a.mallocs - b.mallocs),
		gc:      float64(a.gc - b.gc),
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// fsName names the filesystem a directory lives on.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs-0x%x", uint32(st.Type))
}
