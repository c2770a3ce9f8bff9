package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// hostFacts is printed with every result so a number always travels
// with the machine it was measured on.
type hostFacts struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	L2         string  `json:"l2"`
	L3         string  `json:"l3"`
	GoVersion  string  `json:"go_version"`
	SnapshotFS string  `json:"snapshot_fs"`
	StealShare float64 `json:"steal_share"`
	GCCycles   uint64  `json:"gc_cycles"`
	// The speed probe's median (ms) in the timed phase and the reference
	// the served path's times are scaled to (see probe.go).
	ProbeMs    float64 `json:"probe_ms"`
	ProbeRefMs float64 `json:"probe_ref_ms"`
}

func (h *hostFacts) setProbe(samples []float64) {
	h.ProbeMs, h.ProbeRefMs = percentile(samples, 0.5), probeRefMs
}

func readHost(dir string) hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		L2:         cacheSize(2),
		L3:         cacheSize(3),
		GoVersion:  runtime.Version(),
		SnapshotFS: fsType(dir),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reads the size of cpu0's cache at the given level.
func cacheSize(level int) string {
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/"
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		if sz, err := os.ReadFile(dir + "size"); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

// cpuTimes is the aggregate line of /proc/stat: total jiffies and the
// share the hypervisor stole.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTimes
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

func stealShare(a, b cpuTimes) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// runtimeSample is one read of the Go runtime's own counters.
type runtimeSample struct {
	gcCycles, allocBytes uint64
	gcCPU, totalCPU      float64
	mutexWait            float64
	schedCount, schedSum float64
	liveHeap             uint64
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r runtimeSample
	r.gcCycles = ss[0].Value.Uint64()
	r.allocBytes = ss[1].Value.Uint64()
	r.gcCPU = ss[2].Value.Float64()
	r.totalCPU = ss[3].Value.Float64()
	r.mutexWait = ss[4].Value.Float64()
	h := ss[5].Value.Float64Histogram()
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if hi-lo > 1 || lo < 0 {
			// The open-ended edge buckets have no usable midpoint.
			continue
		}
		r.schedCount += float64(c)
		r.schedSum += float64(c) * (lo + hi) / 2
	}
	r.liveHeap = ss[6].Value.Uint64()
	return r
}

// liveHeap forces a collection and returns the bytes of live heap.
func liveHeap() uint64 {
	runtime.GC()
	return readRuntime().liveHeap
}
