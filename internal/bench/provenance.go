package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"
)

// provenance records where and on what a run's numbers were measured.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git revision the binary was built from ("unknown" when
	// built outside a git checkout).
	Commit string `json:"commit"`
}

func newProvenance(workload string, seed int64) provenance {
	return provenance{
		Workload:   workload,
		Seed:       seed,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     vcsCommit(),
	}
}

// vcsCommit reads the revision the go command stamped into the binary.
func vcsCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// cpuModel reads the processor model from /proc/cpuinfo: the first "model
// name" line, else (on ARM) the "Hardware" or "CPU part" line.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	found := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if key = strings.TrimSpace(key); ok && found[key] == "" {
			found[key] = strings.TrimSpace(val)
		}
	}
	for _, key := range []string{"model name", "Hardware", "CPU part"} {
		if found[key] != "" {
			return found[key]
		}
	}
	return "unknown"
}

// residentBytes is the memory the Go runtime holds from the OS: everything
// it has mapped minus what it has released back.
func residentBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// memSampler tracks the peak of residentBytes between takes, sampling it
// on its own goroutine until close.
type memSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

// memSampleEvery is the sampling period: short against any campaign.
const memSampleEvery = 2 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	m.peak.Store(residentBytes())
	go func() {
		defer close(m.done)
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				cur := residentBytes()
				for old := m.peak.Load(); cur > old && !m.peak.CompareAndSwap(old, cur); old = m.peak.Load() {
				}
			}
		}
	}()
	return m
}

// take returns the peak since the previous take and restarts tracking from
// the current value.
func (m *memSampler) take() uint64 {
	return m.peak.Swap(residentBytes())
}

// close stops the sampling goroutine and waits for it to exit.
func (m *memSampler) close() {
	close(m.stop)
	<-m.done
}
