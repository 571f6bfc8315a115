package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"gesturecep/internal/wire"
)

// stopGrace is how long a child gets between SIGTERM and SIGKILL (gestured
// was measured taking over half a second to exit after SIGTERM).
const stopGrace = 5 * time.Second

// supervisor owns everything the benchmark leaves outside its own memory:
// the spawned daemons and the scratch directory. cleanup is safe to call
// from any goroutine, any number of times; after it no child is alive and
// the directory is gone.
type supervisor struct {
	root string // repository root
	tmp  string // scratch dir for binaries, logs and the recording archive

	mu      sync.Mutex
	closing bool
	live    []*proc
	pids    []int // every pid ever spawned, for the final liveness check
}

// proc is one spawned daemon.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
	log  string
}

// newSupervisor creates the scratch directory under the checkout's
// .bench_build, the only place the benchmark writes besides benchmark/out.
func newSupervisor(root string) (*supervisor, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &supervisor{root: root, tmp: tmp}, nil
}

// build compiles the daemons from the checkout into the scratch directory.
func (s *supervisor) build(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", s.tmp+string(os.PathSeparator),
		"./cmd/gestured", "./cmd/gesturegateway")
	cmd.Dir = s.root
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// spawn execs a built binary in its own process group, killed by the kernel
// should the benchmark die without cleaning up.
func (s *supervisor) spawn(name, binary string, args ...string) (*proc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return nil, errors.New("benchmark is shutting down")
	}
	logPath := filepath.Join(s.tmp, name+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(s.tmp, binary), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{}), log: logPath}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon carries no information
		close(p.done)
	}()
	s.live = append(s.live, p)
	s.pids = append(s.pids, cmd.Process.Pid)
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop terminates one child: SIGTERM to its group, SIGKILL after stopGrace,
// and returns only once it has been reaped.
func (p *proc) stop() {
	if p.exited() {
		return
	}
	_ = syscall.Kill(-p.pid(), syscall.SIGTERM) // ESRCH: it exited meanwhile
	select {
	case <-p.done:
	case <-time.After(stopGrace):
		_ = syscall.Kill(-p.pid(), syscall.SIGKILL)
		<-p.done
	}
}

// stopAll stops every live child concurrently and waits for all of them.
func (s *supervisor) stopAll() {
	s.mu.Lock()
	live := s.live
	s.live = nil
	s.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range live {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}

// cleanup stops every child, removes the scratch directory and reports any
// spawned pid that is still alive. No spawn succeeds afterwards.
func (s *supervisor) cleanup() error {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.stopAll()
	err := os.RemoveAll(s.tmp)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pid := range s.pids {
		if pidAlive(pid) {
			err = errors.Join(err, fmt.Errorf("spawned pid %d is still alive", pid))
		}
	}
	return err
}

func pidAlive(pid int) bool { return syscall.Kill(pid, 0) == nil }

// tailLog returns the end of a child's output, for error messages.
func (p *proc) tailLog() string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(bytes.TrimSpace(b))
}

// freeAddr reserves a loopback port by binding :0 and closing. Another
// process may take it before the daemon binds, so callers retry.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// daemon is a spawned process that answers the wire protocol.
type daemon struct {
	*proc
	addr  string
	admin string // admin-plane address, empty unless requested
}

const (
	spawnAttempts = 3
	readyTimeout  = 20 * time.Second
)

// startDaemon spawns binary on fresh loopback ports and returns once it
// answers a wire ping. A child that exits before that (typically a lost
// port race) is retried on new ports.
func (s *supervisor) startDaemon(name, binary string, admin bool, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < spawnAttempts; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		full := append([]string{"-addr", addr}, args...)
		d := &daemon{addr: addr}
		if admin {
			if d.admin, err = freeAddr(); err != nil {
				return nil, err
			}
			full = append(full, "-admin-addr", d.admin)
		}
		if d.proc, err = s.spawn(name, binary, full...); err != nil {
			return nil, err
		}
		if lastErr = d.waitReady(); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, lastErr
}

// waitReady polls with real ping round trips until the daemon serves.
func (d *daemon) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	for {
		cl, err := wire.Redial(d.addr, time.Second)
		if err == nil {
			return cl.Close()
		}
		if d.exited() {
			return fmt.Errorf("%s exited before serving: %s", d.name, d.tailLog())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not serving on %s after %v: %w", d.name, d.addr, readyTimeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTick = 100

// parseStatCPU extracts user+system CPU seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := bytes.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	utime, err := strconv.ParseUint(string(f[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(string(f[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(utime+stime) / clockTick, nil
}

// parseStatusHWM extracts the peak resident set size in MiB from the
// contents of /proc/<pid>/status.
func parseStatusHWM(status []byte) (float64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// cpuSeconds reads the daemon's cumulative user+system CPU time.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// peakRSS reads the daemon's resident-set high-water mark in MiB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(b)
}

// selfCPU returns the benchmark process's own user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
