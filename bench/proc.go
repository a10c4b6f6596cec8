package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles the shipped cmd/rknnt-serve of the repository at
// root into buildDir and returns the binary path and how long it took.
// The Go environment is inherited (bench/run.sh points every cache
// inside the checkout).
func buildServer(root, buildDir string) (string, time.Duration, error) {
	bin := filepath.Join(buildDir, "rknnt-serve")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rknnt-serve")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/rknnt-serve in %s: %v\n%s", root, err, out.String())
	}
	return bin, time.Since(t0), nil
}

// server is one rknnt-serve subprocess.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  *bytes.Buffer
	done chan struct{} // closed once the process has been reaped
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs the server with default flags apart from -addr and
// its data source, and returns once /healthz answers.
func startServer(bin string, c *client, dataArgs ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, log: &bytes.Buffer{}, done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, dataArgs...)...)
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed server carries no information
		close(s.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return nil, fmt.Errorf("server exited during boot:\n%s", s.log.String())
		default:
		}
		if _, err := c.healthz(addr); err == nil {
			return s, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return nil, fmt.Errorf("server not healthy after 30s:\n%s", s.log.String())
}

// kill SIGKILLs the server and waits until it has been reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-s.done
}

// rssMB reads one resident-set figure of the server from /proc, in MB:
// "VmRSS" for the current size, "VmHWM" for the peak.
func (s *server) rssMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// sampleRSS reads the server's resident set every interval until stop is
// closed and returns the samples.
func (s *server) sampleRSS(interval time.Duration, stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			if mb, err := s.rssMB("VmRSS"); err == nil { // a missed sample is no failure
				out = append(out, mb)
			}
		}
	}
}

// hostInfo describes where a run was measured.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Load1      float64 `json:"load1"`
	Commit     string  `json:"commit"`
}

func readHost(root string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Load1:      -1,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil { // a checkout need not be a git repository
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

// cpuSeconds returns the CPU time (user+system) the server has used.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, in clock ticks of 10 ms.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return (ut + st) / 100, nil
}

// selfCPUSeconds returns the CPU time this process has used.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
