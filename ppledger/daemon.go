package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
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

// findRoot walks up from dir to the ppclust module root: the directory
// whose go.mod declares `module ppclust`.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			first, _, _ := strings.Cut(string(raw), "\n")
			if strings.TrimSpace(first) == "module ppclust" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing ppclust module (run from a ppclust checkout)")
		}
		dir = parent
	}
}

// buildDaemon compiles ./cmd/ppclustd from the working tree at root into
// out. The go command skips the link when out is already up to date.
func buildDaemon(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/ppclustd")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building ppclustd: %w", err)
	}
	return nil
}

// freePorts returns n distinct loopback ports that were free a moment
// ago. They are drawn from below Linux's default ephemeral range
// (32768–60999), so no outgoing connection or port-0 listener, such as a
// delay proxy, can take one before its daemon binds it.
func freePorts(n int) ([]int, error) {
	var held []net.Listener
	defer func() {
		for _, ln := range held {
			ln.Close()
		}
	}()
	for tries := 0; len(held) < n; tries++ {
		if tries == 1000 {
			return nil, errors.New("no free loopback ports in 20000-31999")
		}
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", 20000+rand.IntN(12000)))
		if err == nil {
			held = append(held, ln)
		}
	}
	ports := make([]int, n)
	for i, ln := range held {
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// daemon is one ppclustd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port, direct (not through a proxy)
	log  string
	done chan struct{} // closed once the process has exited
}

// startDaemon launches bin with args, its stderr going to logPath.
func startDaemon(bin string, args []string, base, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Should the driver die without stopping it, the kernel kills the
	// daemon rather than leaving it behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting ppclustd: %w", err)
	}
	d := &daemon{cmd: cmd, base: base, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	return d, nil
}

// waitReady polls GET /readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context, c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("ppclustd at %s exited during start-up: %s", d.base, d.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ppclustd at %s not ready after 30s: %s", d.base, d.logTail())
		}
	}
}

// stop sends SIGTERM, giving the daemon its graceful drain, and kills it
// if it has not exited after 15 s. It returns once the process is gone.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// statusKiB reads one kB-valued field of the process's /proc status,
// such as "VmRSS" or "VmHWM".
func (d *daemon) statusKiB(field string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// metrics fetches the daemon's flat GET /v1/metrics snapshot.
func (d *daemon) metrics(ctx context.Context, c *http.Client) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/v1/metrics: status %d", d.base, resp.StatusCode)
	}
	var snap map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("GET %s/v1/metrics: %w", d.base, err)
	}
	return snap, nil
}

// logTail returns the last lines of the daemon's log, for error reports.
func (d *daemon) logTail() string {
	raw, err := os.ReadFile(d.log)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, "\n")
}
