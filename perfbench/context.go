package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runContext describes the host and code a result was measured on.
func runContext(o options) string {
	return joinf("context:",
		"workload", o.workload, "seed", o.seed, "seconds", o.seconds, "trace", o.trace,
		"nproc", runtime.NumCPU(), "gomaxprocs", runtime.GOMAXPROCS(0),
		"go", runtime.Version(), "kernel", kernelRelease(), "commit", commitOf(o.root))
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// commitOf names the code under test: the git commit when the checkout
// is a work tree, else "tree:" and a hash of every Go source and module
// file, so results from a plain export are still tied to their code.
func commitOf(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				return strings.TrimSpace(string(id))
			}
			return ref
		}
		return ref
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcStats is a point-in-time reading of the collector's counters.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
	alloc   uint64 // cumulative bytes allocated
	mallocs uint64
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{m.NumGC, m.PauseTotalNs, m.TotalAlloc, m.Mallocs}
}
