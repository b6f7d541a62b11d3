package main

import (
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// hostStamp says what machine and build produced a number.
type hostStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func stampHost(seed int64) hostStamp {
	h := hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Seed:       seed,
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	// The go tool stamps the revision when it builds inside a git
	// checkout; the driver's checkout is not one.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

var spinSink uint64

// spinMops runs a fixed arithmetic loop on one goroutine for d and
// returns millions of iterations per second: a yardstick for how fast
// the host is right now, independent of the program under test.  It is
// the best of four quarters of d, because interference only ever slows a
// quarter down.
func spinMops(d time.Duration) float64 {
	const chunk = 1 << 16
	x, best := uint64(88172645463325252), 0.0
	for q := 0; q < 4; q++ {
		n, start := 0, time.Now()
		for time.Since(start) < d/4 {
			for i := 0; i < chunk; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			n += chunk
		}
		best = max(best, float64(n)/time.Since(start).Seconds()/1e6)
	}
	spinSink = x
	return best
}

// cpuSeconds returns the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
