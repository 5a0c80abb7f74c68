package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one usimd process the benchmark started.
type proc struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{}
}

// orphanKill has the kernel kill a child whose benchmark process died
// without stopping it, so an interrupted run leaves no daemon behind.
var orphanKill = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func startProc(bin, logPath string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-log-every", "0")...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = orphanKill
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, url: fmt.Sprintf("http://127.0.0.1:%d", port), log: lf, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(p.done) }()
	return p, nil
}

// waitHealthy polls /healthz until it answers 200.
func (p *proc) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before answering /healthz (see %s)", filepath.Base(p.cmd.Path), p.log.Name())
		default:
		}
		if resp, err := c.Get(p.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s: no healthy /healthz within %s", p.url, timeout)
}

// vmRSS is the process's resident set in bytes.
func (p *proc) vmRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmRSS line")
}

// cpuSeconds is the process's user plus system CPU time, all threads.
// It sums the threads' schedstat run times, which count nanoseconds;
// /proc/<pid>/stat counts 10 ms ticks, too coarse for the write probe's
// fraction of a CPU-second. Go threads live as long as the process, so
// no thread's time is lost to an exit.
func (p *proc) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between listing and reading
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// stop sends SIGTERM, then SIGKILL after 5 s, and waits for exit.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// deployment is the system under test: one node, or a coordinator
// over two nodes. front is where clients send requests.
type deployment struct {
	procs []*proc
	front *proc
}

func (d *deployment) stop() {
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].stop()
	}
}

// cpuSeconds sums the processes' CPU time.
func (d *deployment) cpuSeconds() (float64, error) {
	sum := 0.0
	for _, p := range d.procs {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// sampleRSS sums the processes' resident sets every 100 ms until stop
// closes, then sends the samples in MB. The median of these is steadier
// than the peak (VmHWM), which a warm-up transient or one late
// collection sets.
func (d *deployment) sampleRSS(stop <-chan struct{}) <-chan [][]float64 {
	out := make(chan [][]float64, 1)
	go func() {
		samples := make([][]float64, len(d.procs)+1) // per process, then the sum
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			var sum int64
			for i, p := range d.procs {
				b, _ := p.vmRSS() // a failed read counts 0 and shows in the per-process note
				sum += b
				samples[i] = append(samples[i], float64(b)/(1<<20))
			}
			samples[len(d.procs)] = append(samples[len(d.procs)], float64(sum)/(1<<20))
			select {
			case <-stop:
				out <- samples
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// env is one run's files and binaries.
type env struct {
	bin       string // directory holding usimd and usim-index
	dir       string // per-run scratch directory
	graphPath string
	indexPath string
	seed      uint64
}

func (e *env) nodeArgs(w workload) []string {
	args := []string{"-graph", e.graphPath, "-warm", "-workers", strconv.Itoa(workers),
		"-seed", strconv.FormatUint(engineSeed(e.seed), 10)}
	if w.index {
		args = append(args, "-index", e.indexPath)
	}
	if w.rowCache > 0 {
		args = append(args, "-rowcache", strconv.Itoa(w.rowCache))
	}
	return args
}

// buildIndex runs usim-index over the run's graph.
func (e *env) buildIndex(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, "usim-index"), "-graph", e.graphPath, "-out", e.indexPath,
		"-workers", strconv.Itoa(workers), "-seed", strconv.FormatUint(engineSeed(e.seed), 10))
	cmd.SysProcAttr = orphanKill
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("usim-index: %v: %s", err, out)
	}
	return nil
}

// deploy starts the workload's system from nothing — index build
// included where one is served — and returns once every process
// answers /healthz with its SR-SP filters warm.
func (e *env) deploy(ctx context.Context, w workload, rep int) (*deployment, error) {
	if w.index {
		if err := e.buildIndex(ctx); err != nil {
			return nil, err
		}
	}
	d := &deployment{}
	usimd := filepath.Join(e.bin, "usimd")
	var shards []string
	for i := 0; i < w.nodes; i++ {
		p, err := startProc(usimd, filepath.Join(e.dir, fmt.Sprintf("node%d-%d.log", i, rep)), e.nodeArgs(w)...)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.procs = append(d.procs, p)
		shards = append(shards, fmt.Sprintf("shard%d=%s", i, p.url))
	}
	for _, p := range d.procs {
		if err := p.waitHealthy(60 * time.Second); err != nil {
			d.stop()
			return nil, err
		}
	}
	d.front = d.procs[0]
	if w.nodes > 1 {
		p, err := startProc(usimd, filepath.Join(e.dir, fmt.Sprintf("coord-%d.log", rep)), "-cluster", strings.Join(shards, ","))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.procs = append(d.procs, p)
		if err := p.waitHealthy(60 * time.Second); err != nil {
			d.stop()
			return nil, err
		}
		d.front = p
	}
	return d, nil
}
