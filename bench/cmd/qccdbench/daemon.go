package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/service"
)

// daemon is one running qccdd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	// exited is closed once the process has been reaped.
	exited chan struct{}
	// setup is the time from exec to the first 200 from /healthz.
	setup time.Duration
}

// startDaemon execs bin on a free loopback port with args and waits until
// /healthz answers 200, polling every millisecond.
func startDaemon(bin string, hc *http.Client, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stderr = &d.stderr
	// The daemon dies with the benchmark even when the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start qccdd: %w", err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	for deadline := start.Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("qccdd exited during start-up: %s", strings.TrimSpace(d.stderr.String()))
		default:
		}
		resp, err := hc.Get(d.base + "/healthz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			d.setup = time.Since(start)
			return d, nil
		}
	}
	d.stop()
	return nil, errors.New("qccdd did not answer /healthz within 20s")
}

// freeAddr returns a loopback address with a port the kernel just handed
// out, so concurrent benchmark checkouts do not collide.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// peakRSSMB reads the daemon's high-water resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read qccdd status: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in qccdd status")
}

// storeStats reads GET /v1/cache.
func (d *daemon) storeStats(hc *http.Client) (cache.StoreStats, error) {
	resp, err := hc.Get(d.base + "/v1/cache")
	if err != nil {
		return cache.StoreStats{}, err
	}
	defer resp.Body.Close()
	var body service.CacheResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return cache.StoreStats{}, fmt.Errorf("decode /v1/cache: %w", err)
	}
	return body.Store, nil
}

// stop sends SIGTERM, which makes qccdd drain and exit, and waits for the
// process; one that has not exited after five seconds is killed.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// newHTTPClient returns a client holding at most two connections, one per
// client goroutine the benchmark runs.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// row is the part of one SweepLine or RunResponse the benchmark checks.
type row struct {
	Seq       int
	Point     []byte
	Result    []byte
	Error     string
	Cached    bool
	ElapsedUS int64
}

// sweepOnce posts one /v1/sweep request and calls onRow for every
// outcome row in stream order.
func sweepOnce(hc *http.Client, base string, body []byte, onRow func(row)) error {
	resp, err := hc.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("sweep: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	done := false
	for line := 0; sc.Scan(); line++ {
		b := sc.Bytes()
		switch {
		case line == 0:
			continue // the header names the sweep; nothing to check
		case bytes.HasPrefix(b, []byte(`{"done"`)):
			done = true
		default:
			r, err := parseRow(b)
			if err != nil {
				return err
			}
			onRow(r)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("sweep stream: %w", err)
	}
	if !done {
		return errors.New("sweep stream ended without a summary")
	}
	return nil
}

// runOnce posts one /v1/run request.
func runOnce(hc *http.Client, base string, body []byte) (row, error) {
	resp, err := hc.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return row{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return row{}, fmt.Errorf("run: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return row{}, fmt.Errorf("run: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return parseRow(bytes.TrimSpace(raw))
}

// parseRow picks the checked fields out of one outcome object without
// decoding the simulation result, so the load generator spends little of
// the two cores it shares with the daemon. Point and Result alias line.
func parseRow(line []byte) (row, error) {
	var r row
	err := eachField(line, func(key string, val []byte) error {
		var err error
		switch key {
		case "seq":
			r.Seq, err = strconv.Atoi(string(val))
		case "point":
			r.Point = val
		case "result":
			r.Result = val
		case "error":
			err = json.Unmarshal(val, &r.Error)
		case "cached":
			r.Cached = string(val) == "true"
		case "elapsed_us":
			r.ElapsedUS, err = strconv.ParseInt(string(val), 10, 64)
		}
		return err
	})
	if err != nil {
		return row{}, fmt.Errorf("row %.80q: %w", line, err)
	}
	return r, nil
}

// eachField calls f with every top-level key of a compact JSON object and
// the raw bytes of its value.
func eachField(obj []byte, f func(key string, val []byte) error) error {
	if len(obj) < 2 || obj[0] != '{' || obj[len(obj)-1] != '}' {
		return errors.New("not a JSON object")
	}
	last := len(obj) - 1
	for i := 1; i < last; {
		kEnd := skipValue(obj, i)
		if obj[i] != '"' || kEnd < 0 || kEnd >= last || obj[kEnd] != ':' {
			return errors.New("malformed key")
		}
		key := string(obj[i+1 : kEnd-1])
		vEnd := skipValue(obj, kEnd+1)
		if vEnd <= kEnd+1 || vEnd > last || (vEnd < last && obj[vEnd] != ',') {
			return fmt.Errorf("malformed value of %q", key)
		}
		if err := f(key, obj[kEnd+1:vEnd]); err != nil {
			return err
		}
		i = vEnd + 1
	}
	return nil
}

// skipValue returns the index just past the compact JSON value starting
// at b[i], or -1 if it is unterminated.
func skipValue(b []byte, i int) int {
	depth, inString := 0, false
	for ; i < len(b); i++ {
		c := b[i]
		switch {
		case inString:
			if c == '\\' {
				i++
			} else if c == '"' {
				inString = false
				if depth == 0 {
					return i + 1
				}
			}
		case c == '"':
			inString = true
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth == 0 {
				return i // end of the enclosing object
			}
			depth--
			if depth == 0 {
				return i + 1
			}
		case c == ',' && depth == 0:
			return i
		}
	}
	return -1
}
