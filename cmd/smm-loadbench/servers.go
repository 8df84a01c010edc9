package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// buildServer compiles ./cmd/smm-serve from the repository at root into
// dir and returns the binary's path.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "smm-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/smm-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building smm-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// errExited reports a server that ended before becoming ready, which is
// what a port taken between picking and binding looks like.
var errExited = errors.New("server exited before it was ready")

const readyTimeout = 20 * time.Second

// readyPoll is the pause between readiness probes. A server listens about
// 2.5 ms after it is spawned, so the pause must be well under a
// millisecond, and it is slept in the kernel: a shorter time.Sleep lasts a
// millisecond when the process is otherwise idle, which splits setup_s
// into modes a millisecond apart.
const readyPoll = 250 * time.Microsecond

func pause() {
	_ = syscall.Nanosleep(&syscall.Timespec{Nsec: readyPoll.Nanoseconds()}, nil) // an interrupted pause only probes sooner
}

// launcher starts smm-serve processes and kills every one it started:
// fleets stop themselves, and killAll covers errors, panics and signals.
// Children also get SIGKILL from the kernel if this process dies first.
type launcher struct {
	bin string
	hc  *http.Client
	// pickPorts returns n loopback ports that were free a moment ago.
	pickPorts func(n int) ([]int, error)

	mu   sync.Mutex
	live map[*proc]bool
}

func newLauncher(bin string, hc *http.Client) *launcher {
	return &launcher{bin: bin, hc: hc, pickPorts: freePorts, live: make(map[*proc]bool)}
}

// proc is one running smm-serve process.
type proc struct {
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
}

func (s *proc) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// fleet is the set of servers one round runs against.
type fleet struct {
	l       *launcher
	servers []*proc
}

func (f *fleet) urls() []string {
	out := make([]string, len(f.servers))
	for i, s := range f.servers {
		out[i] = s.url
	}
	return out
}

// freePorts asks the kernel for n distinct free loopback ports.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	lns := make([]net.Listener, n)
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// start launches n servers (a -peers fleet when n > 1) and waits until
// they are ready. A server that exits during start-up, as when its port
// was taken after being picked, is retried once on fresh ports.
func (l *launcher) start(ctx context.Context, n int) (*fleet, error) {
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		var f *fleet
		if f, err = l.spawn(n); err != nil {
			return nil, err
		}
		if err = f.waitReady(ctx); err == nil {
			return f, nil
		}
		f.stop()
		if !errors.Is(err, errExited) {
			return nil, err
		}
	}
	return nil, err
}

func (l *launcher) spawn(n int) (*fleet, error) {
	ports, err := l.pickPorts(n)
	if err != nil {
		return nil, fmt.Errorf("picking ports: %w", err)
	}
	urls := make([]string, n)
	for i, p := range ports {
		urls[i] = "http://127.0.0.1:" + strconv.Itoa(p)
	}
	f := &fleet{l: l}
	for _, u := range urls {
		args := []string{"-addr", strings.TrimPrefix(u, "http://")}
		if n > 1 {
			args = append(args, "-peers", strings.Join(urls, ","), "-self", u)
		}
		cmd := exec.Command(l.bin, args...)
		// Logs are discarded: stdout and stderr stay nil (/dev/null).
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		s := &proc{url: u, cmd: cmd, done: make(chan struct{})}
		l.mu.Lock()
		err := cmd.Start()
		if err == nil {
			l.live[s] = true
		}
		l.mu.Unlock()
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("starting smm-serve: %w", err)
		}
		go func() {
			_ = cmd.Wait() // the exit status of a killed server carries nothing
			close(s.done)
		}()
		f.servers = append(f.servers, s)
	}
	return f, nil
}

// stop kills the fleet's servers and waits until each has been reaped.
func (f *fleet) stop() {
	for _, s := range f.servers {
		f.l.kill(s)
	}
}

func (l *launcher) kill(s *proc) {
	l.mu.Lock()
	delete(l.live, s)
	l.mu.Unlock()
	_ = s.cmd.Process.Kill() // fails only when the server has already exited
	<-s.done
}

// killAll kills every server still running.
func (l *launcher) killAll() {
	l.mu.Lock()
	live := make([]*proc, 0, len(l.live))
	for s := range l.live {
		live = append(live, s)
	}
	l.mu.Unlock()
	for _, s := range live {
		l.kill(s)
	}
}

// waitReady polls until every member answers /healthz and, in a fleet,
// every member reports all its peers alive.
func (f *fleet) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(readyTimeout)
	for _, s := range f.servers {
		for !f.l.ready(ctx, s, len(f.servers)) {
			if s.exited() {
				return fmt.Errorf("%s: %w", s.url, errExited)
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after %v", s.url, readyTimeout)
			}
			pause()
		}
	}
	return nil
}

// probeTimeout bounds one readiness probe, so a port that another process
// holds and never answers on cannot stall start-up.
const probeTimeout = time.Second

func (l *launcher) ready(ctx context.Context, s *proc, members int) bool {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	// A bare connect is the cheapest probe of a server that is not yet
	// listening, and cheap probes leave the CPU to its start-up.
	c, err := (&net.Dialer{}).DialContext(ctx, "tcp", strings.TrimPrefix(s.url, "http://"))
	if err != nil {
		return false
	}
	c.Close()
	body, err := l.get(ctx, s.url+"/healthz")
	if err != nil || !bytes.HasPrefix(body, []byte("ok")) {
		return false
	}
	if members == 1 {
		return true
	}
	body, err = l.get(ctx, s.url+"/v1/cluster/status")
	if err != nil {
		return false
	}
	var st struct {
		Members []struct {
			Alive bool `json:"alive"`
		} `json:"members"`
	}
	if json.Unmarshal(body, &st) != nil || len(st.Members) != members {
		return false
	}
	for _, m := range st.Members {
		if !m.Alive {
			return false
		}
	}
	return true
}

// get fetches url and returns the body of a 200 response.
func (l *launcher) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := l.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// cpuTime returns the fleet's summed user+system CPU time.
func (f *fleet) cpuTime() (time.Duration, error) {
	var total time.Duration
	for _, s := range f.servers {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name start at field 3;
		// utime and stime are fields 14 and 15.
		rest := data[bytes.LastIndexByte(data, ')')+1:]
		fields := strings.Fields(string(rest))
		if len(fields) < 13 {
			return 0, fmt.Errorf("short /proc stat for pid %d", s.cmd.Process.Pid)
		}
		for _, fld := range fields[11:13] {
			ticks, err := strconv.ParseInt(fld, 10, 64)
			if err != nil {
				return 0, err
			}
			total += time.Duration(ticks) * time.Second / clockTicks
		}
	}
	return total, nil
}

// peakRSSKB returns the fleet's summed VmHWM in kB.
func (f *fleet) peakRSSKB() (int64, error) {
	var total int64
	for _, s := range f.servers {
		pid := s.cmd.Process.Pid
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		_, rest, ok := strings.Cut(string(data), "VmHWM:")
		fields := strings.Fields(rest)
		if !ok || len(fields) == 0 {
			return 0, fmt.Errorf("no VmHWM for pid %d", pid)
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM of pid %d: %w", pid, err)
		}
		total += kb
	}
	return total, nil
}

// scrape sums every member's /metrics exposition into name{labels} → value.
func (f *fleet) scrape(ctx context.Context) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, s := range f.servers {
		body, err := f.l.get(ctx, s.url+"/metrics")
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(body), "\n") {
			i := strings.LastIndexByte(line, ' ')
			if i < 0 || strings.HasPrefix(line, "#") {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			out[line[:i]] += v
		}
	}
	return out, nil
}

// spans fetches every member's /v1/spans document.
func (f *fleet) spans(ctx context.Context) ([][]byte, error) {
	out := make([][]byte, len(f.servers))
	for i, s := range f.servers {
		body, err := f.l.get(ctx, s.url+"/v1/spans")
		if err != nil {
			return nil, err
		}
		out[i] = body
	}
	return out, nil
}
