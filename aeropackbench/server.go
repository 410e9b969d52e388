package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running aeropackd launched from the built binary with
// its default flags on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	ready  time.Duration // exec → first /healthz 200
	done   chan struct{} // closed once the process has been waited for
	err    error         // its exit status, valid after done
}

// startDaemon launches aeropackd and waits until /healthz answers 200.
// The child is killed if this process dies first.
func startDaemon(bin string, client *http.Client) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting aeropackd: %w", err)
	}
	d := &daemon{cmd: cmd, client: client, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Forward the daemon's log lines after picking out the address;
		// the scanner ends when the daemon exits and closes the pipe.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "aeropackd: listening on "); ok {
				addr <- a
			}
		}
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		return nil, fmt.Errorf("aeropackd exited before listening: %v", d.err)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("aeropackd printed no listen address within 30 s")
	}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(t0)
				return d, nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.kill()
			return nil, fmt.Errorf("aeropackd not healthy within 30 s: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM and waits for the daemon to exit, killing it if it
// has not drained within ten seconds.  A daemon stopped right after it
// became healthy may not have installed its signal handler yet; dying of
// the SIGTERM itself then counts as a clean stop too.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		err := d.err
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("aeropackd exit: %w", err)
		}
		return nil
	case <-time.After(10 * time.Second):
		d.kill()
		return fmt.Errorf("aeropackd did not stop within 10 s of SIGTERM")
	}
}

// kill ends the daemon at once, if it is still running, and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // exited in the meantime is fine
	<-d.done
}

// post sends one study body and returns the status, response bytes and
// the X-Aeropack-Cache disposition.
func (d *daemon) post(body []byte) (int, []byte, string, error) {
	resp, err := d.client.Post(d.base+"/v1/studies", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header.Get("X-Aeropack-Cache"), err
}

// scrape reads /metrics and returns every unlabelled sample (counters,
// gauges, histogram _sum and _count lines) by name.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %v", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// cpuTime is the user plus system CPU time a process has used so far,
// from /proc/<pid>/stat (clock ticks of 1/100 s).
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// selfCPU is this process's user plus system CPU time, at microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is VmHWM from /proc/<pid>/status ("self" for this process)
// in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
