package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running child process: topod, or the reference server
// (ref.go).
type proc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // exit status, valid once done is closed
	logf *os.File
}

// topodProcs is the GOMAXPROCS of topod, of the reference server and
// of the generator: one P each, so that topod and the reference server
// run under the same scheduler settings. With more Ps than it has work
// for, the Go scheduler spins idle Ps looking for work after every
// wake-up, and that spinning made topod's CPU time per request vary
// from run to run by up to 15% on the reference machine.
const topodProcs = 1

// readyTimeout bounds how long a boot may take before the run fails.
const readyTimeout = 90 * time.Second

// startTopod launches topod on a free loopback port with args and
// returns once /readyz answers 200. Its output goes to logPath.
func startTopod(bin, logPath string, args ...string) (*proc, error) {
	return startProc(bin, logPath, func(addr string) []string {
		return append([]string{"-addr", addr}, args...)
	})
}

// startProc launches bin with the arguments argv gives for a free
// loopback address and returns once /readyz answers 200 there.
func startProc(bin, logPath string, argv func(addr string) []string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, argv(addr)...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", topodProcs))
	cmd.Stdout, cmd.Stderr = logf, logf
	started.mu.Lock()
	if err := cmd.Start(); err != nil {
		started.mu.Unlock()
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), logf: logf}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	started.procs = append(started.procs, p)
	started.mu.Unlock()
	if err := p.waitReady(); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// started lists every process this one started, so none outlives it.
var started struct {
	mu    sync.Mutex
	procs []*proc
}

// killStarted kills every started process that is still running and
// waits for each to end.
func killStarted() {
	started.mu.Lock()
	defer started.mu.Unlock()
	for _, p := range started.procs {
		select {
		case <-p.done:
		default:
			p.kill()
		}
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /readyz every millisecond on throwaway connections
// (keep-alive off, so the load connections stay the only persistent
// ones) until it answers 200.
func (p *proc) waitReady() error {
	client := &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   5 * time.Second,
	}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during boot: %v (log %s)", filepath.Base(p.cmd.Path), p.err, p.logf.Name())
		default:
		}
		resp, err := client.Get(p.base + "/readyz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s not ready within %s (log %s)", filepath.Base(p.cmd.Path), readyTimeout, p.logf.Name())
}

// stop sends SIGTERM (topod drains and checkpoints) and waits for a
// clean exit.
func (p *proc) stop() error {
	defer p.logf.Close()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(60 * time.Second):
		p.kill()
		return errors.New("topod did not exit within 60s of SIGTERM")
	}
	if p.err != nil {
		return fmt.Errorf("topod exit after SIGTERM: %w (log %s)", p.err, p.logf.Name())
	}
	return nil
}

// kill sends SIGKILL and waits for the process to end.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
	p.logf.Close()
}

// rssBytes reads the process's resident set size.
func (p *proc) rssBytes() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024, nil
		}
	}
	return 0, errors.New("VmRSS not found")
}

// cpuTime is the CPU time the process's threads have used, summed
// from each thread's /proc schedstat.
func (p *proc) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after ReadDir
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, errors.New("unexpected schedstat line")
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return time.Duration(total), nil
}

// quiesce waits (at most 20s) until topod has used at most 10ms of CPU
// in each of three consecutive 100ms windows, so work a phase left
// running in the background, such as the flat boot's rebuild of the
// paged working copy, stays out of the next phase's timings. It
// reports whether topod went quiet.
func (p *proc) quiesce() bool {
	deadline := time.Now().Add(20 * time.Second)
	prev, err := p.cpuTime()
	for idle := 0; err == nil && time.Now().Before(deadline); {
		time.Sleep(100 * time.Millisecond)
		var cur time.Duration
		if cur, err = p.cpuTime(); err != nil {
			break
		}
		if cur-prev <= 10*time.Millisecond {
			idle++
		} else {
			idle = 0
		}
		if idle == 3 {
			return true
		}
		prev = cur
	}
	return false
}

// rssSampler reads topod's resident set every 100ms until stop, so
// the reported size is the median over the timed phase rather than a
// single reading at some point of the garbage collector's cycle.
type rssSampler struct {
	stopc chan struct{}
	done  chan struct{}
	vals  []float64
	err   error
}

func sampleRSS(p *proc) *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			v, err := p.rssBytes()
			if err != nil {
				s.err = err
				return
			}
			s.vals = append(s.vals, v)
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the median reading.
func (s *rssSampler) stop() (float64, int, error) {
	close(s.stopc)
	<-s.done
	return median(s.vals), len(s.vals), s.err
}

// flushDir fsyncs every file under dir, so the kernel's writeback of
// what one phase wrote does not run during the next phase's timings.
func flushDir(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return float64(total), err
}
