package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat's utime
// and stime. It has been 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStat returns pid's parent and its user+system CPU time from
// /proc/<pid>/stat.
func procStat(pid int) (ppid int, cpu time.Duration, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may contain spaces and parentheses; the
	// numeric fields start after the last ')'.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ppid, _ = strconv.Atoi(f[1]) // field 4
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return ppid, time.Duration(ut+st) * clockTick, nil
}

// childPIDs lists this process's live children whose command line mentions
// marker (a cluster's scratch directory identifies its hermesd processes).
func childPIDs(marker string) []int {
	self := os.Getpid()
	entries, _ := os.ReadDir("/proc")
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if ppid, _, err := procStat(pid); err != nil || ppid != self {
			continue
		}
		cmdline, _ := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
		if bytes.Contains(cmdline, []byte(marker)) {
			pids = append(pids, pid)
		}
	}
	return pids
}

// procsCPU sums the CPU time of pids; a process that has exited
// contributes nothing.
func procsCPU(pids []int) time.Duration {
	var total time.Duration
	for _, pid := range pids {
		if _, cpu, err := procStat(pid); err == nil {
			total += cpu
		}
	}
	return total
}

// rssPeakMB is the peak resident set of pid (VmHWM), 0 if unreadable.
func rssPeakMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// fingerprint identifies the machine and code a result was measured on.
type fingerprint struct {
	NProc     int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	GitSHA    string `json:"git_sha"`
}

func machineFingerprint(root string) fingerprint {
	fp := fingerprint{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GitSHA: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					fp.CPUModel = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	// A benchmark checkout need not be a git repository.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			fp.GitSHA = strings.TrimSpace(string(out))
		}
	}
	return fp
}

// killStrayChildren SIGKILLs every hermesd this process spawned (their
// scratch directories live below bench/out/run). An interrupted benchmark
// calls it so that no cluster process outlives it.
func killStrayChildren(env *environment) {
	for _, pid := range childPIDs(filepath.Join(env.out, "run")) {
		_ = syscall.Kill(pid, syscall.SIGKILL) // already gone is fine
	}
}
