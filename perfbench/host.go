package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
)

// hostFacts are recorded with every run: the numbers mean little without
// them.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	LogFS      string `json:"log_fs"`
	SyncPolicy string `json:"sync_policy"`
}

func host(s *spec, dataDir string) hostFacts {
	h := hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
		LogFS:      "none",
		SyncPolicy: "none (no log)",
	}
	if h.GOGC == "" {
		h.GOGC = "100"
	}
	if s.served {
		h.LogFS = fsType(dataDir)
		h.SyncPolicy = "every batch"
	}
	return h
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cpuNS is the process's user+system CPU time so far.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapAllocs returns the cumulative heap objects and bytes allocated.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// cpuTicks reads the host-wide CPU time counters: the ticks stolen by the
// hypervisor and the total. Zeros where /proc/stat is unavailable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	fields := bytes.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

// residentMB is the memory the Go runtime holds from the OS right now:
// everything it has mapped less the heap pages it has returned.
func residentMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}
