package telemetry

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// HostSample is one point-in-time reading of process and host utilisation,
// taken from getrusage and /proc (no external dependencies).
type HostSample struct {
	// UnixMillis is the sample timestamp.
	UnixMillis int64 `json:"unix_millis"`
	// CPUSeconds is cumulative process CPU time (user+system).
	CPUSeconds float64 `json:"cpu_seconds"`
	// MaxRSSBytes is the process peak resident set size.
	MaxRSSBytes int64 `json:"max_rss_bytes"`
	// Load1 is the host 1-minute load average (0 if unreadable).
	Load1 float64 `json:"load1"`
	// GOMAXPROCS is the scheduler's processor limit at sample time.
	GOMAXPROCS int `json:"gomaxprocs"`
	// NumGoroutine is the live goroutine count.
	NumGoroutine int `json:"num_goroutine"`
	// HeapAllocBytes is the live heap size from runtime.MemStats.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
}

// ReadHostSample takes one utilisation reading for the current process.
func ReadHostSample() HostSample {
	s := HostSample{
		UnixMillis: time.Now().UnixMilli(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.CPUSeconds = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		// On Linux ru_maxrss is in kilobytes.
		s.MaxRSSBytes = int64(ru.Maxrss) * 1024
	}
	s.Load1 = readLoad1()
	s.NumGoroutine = runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.HeapAllocBytes = ms.HeapAlloc
	return s
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func readLoad1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return v
}
