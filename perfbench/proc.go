package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is what one finished system-under-test process cost.
type usage struct {
	cpu    time.Duration // user + system CPU of the process and its threads
	user   time.Duration // the user part of cpu (see setupCPU)
	maxRSS int64         // peak resident set, bytes
}

// sutEnv is the environment the system under test runs in: the
// benchmark's own, minus every Go runtime knob, so each CLI runs with
// the defaults its users get.
func sutEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG":
			continue
		}
		env = append(env, kv)
	}
	return env
}

// sut builds a command for one of the built CLIs.
func (b *bench) sut(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(b.bin, name), args...)
	cmd.Dir = b.work
	cmd.Env = sutEnv()
	return cmd
}

// runSUT runs cmd to completion and returns its resource usage. A
// non-zero exit is an error carrying the tail of its standard error.
func runSUT(cmd *exec.Cmd) (usage, error) {
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var u usage
	if cmd.ProcessState != nil {
		u = finished(cmd.ProcessState)
	}
	if err != nil {
		tail := stderr.String()
		if len(tail) > 400 {
			tail = tail[len(tail)-400:]
		}
		return u, fmt.Errorf("%s: %v: %s", filepath.Base(cmd.Path), err, strings.TrimSpace(tail))
	}
	return u, nil
}

// finished reads a reaped process's CPU and peak RSS from its rusage.
func finished(ps *os.ProcessState) usage {
	u := usage{cpu: ps.UserTime() + ps.SystemTime(), user: ps.UserTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.maxRSS = ru.Maxrss * 1024 // Linux reports kilobytes
	}
	return u
}

// liveCPU returns a running process's CPU so far, summed over its
// threads from /proc/<pid>/task/*/schedstat (nanosecond resolution,
// unlike the clock-tick fields of /proc/<pid>/stat).
func liveCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("reading CPU of pid %d: no tasks", pid)
	}
	var total int64
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", t, err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// liveUserCPU returns a running process's user CPU so far, from the
// utime field of /proc/<pid>/stat (clock ticks of 1/100 s).
func liveUserCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime is field 14.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 12 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	ticks, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// hostCPU is a snapshot of the host-wide CPU counters in /proc/stat.
type hostCPU struct{ total, steal float64 }

func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var h hostCPU
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user, so the first eight sum to
	// the total.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealSince is the share of host CPU time the hypervisor stole since
// the snapshot.
func stealSince(h hostCPU) float64 {
	now := readHostCPU()
	return ratio(now.steal-h.steal, now.total-h.total)
}

// gitSHA names the checked-out commit when the checkout is a git
// repository (the benchmark's own checkouts need not be).
func gitSHA(root string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none", err
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none", err
	}
	return strings.TrimSpace(string(out)), nil
}

// sourceDigest hashes the program's sources (go.mod, cmd/, internal/)
// so a result names the code it measured even without git.
func sourceDigest(root string) string {
	h := sha256.New()
	add := func(path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
	}
	add(filepath.Join(root, "go.mod"))
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				add(path)
			}
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sha256Hex(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
