package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
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

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// sutWorkers is the pipeline worker count (-j) every process under test
// runs with. One worker per analysis: on a two-CPU machine shared with
// other tenants, a two-worker run waits at each stage barrier for
// whichever CPU the host took away, and its wall time swings far more
// from minute to minute than a one-worker run's. Concurrency comes from
// the workloads instead (two clients, or two fleet workers).
const sutWorkers = "1"

// cliRun is one `deviant -json` process.
type cliRun struct {
	stdout []byte
	wall   time.Duration
	cpu    time.Duration // user + system, from rusage
	maxRSS int64         // bytes, from rusage
}

// runCLI runs the deviant CLI over dir and waits for it to exit. A
// non-zero exit is an error carrying the CLI's stderr.
func runCLI(bin, dir string) (cliRun, error) {
	cmd := exec.Command(filepath.Join(bin, "deviant"), "-j", sutWorkers, "-json", dir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	run := cliRun{stdout: stdout.Bytes(), wall: time.Since(start)}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			run.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			run.maxRSS = ru.Maxrss << 10 // Linux reports KiB
		}
	}
	if err != nil {
		return run, fmt.Errorf("deviant -json %s: %v: %s", dir, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return run, nil
}

// daemon is one running deviantd process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	log    *os.File
	exited chan struct{}
}

// startDaemon starts deviantd on a free loopback port with extra flags
// and returns once /healthz answers 200. Its log goes to name.log in the
// run directory.
func startDaemon(b *bench, name string, flags ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(b.work, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(b.bin, "deviantd"), append([]string{"-addr", addr, "-j", sutWorkers}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If this process is killed before stop runs, the kernel kills the
	// daemon too, so no daemon outlives the run and loads later ones.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait() // the exit status is read through exited; stop reports hangs
		close(d.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if code, _, err := httpGet(d.url + "/healthz"); err == nil && code == http.StatusOK {
			return d, nil
		}
		select {
		case <-d.exited:
			d.log.Close()
			return nil, fmt.Errorf("deviantd %s exited during start-up (see %s)", name, logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("deviantd %s did not become healthy", name)
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if it has not exited
// within ten seconds, and waits for it to be gone.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// cpu is the daemon's user + system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS is the daemon's resident-set high-water mark (VmHWM) in bytes.
func (d *daemon) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if kb, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 10, 64)
			return n << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// daemons is a set of processes measured together.
type daemons []*daemon

func (ds daemons) stop() {
	for _, d := range ds {
		d.stop()
	}
}

// peakRSS is the daemons' summed VmHWM in bytes.
func (ds daemons) peakRSS() (int64, error) {
	var sum int64
	for _, d := range ds {
		r, err := d.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum, nil
}

// hostTicks reads the machine-wide CPU time the hypervisor stole from
// this machine and the total, both in clock ticks, from /proc/stat. The
// steal share over a run is recorded with its result: on a shared host
// it is the usual reason two runs of the same code disagree.
func hostTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// httpClient is the load generator's client: keep-alive connections,
// no compression, and a timeout well past any single analysis but short
// enough that a hung daemon still ends the run within its time limit.
var httpClient = &http.Client{
	Timeout:   60 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
}

func httpGet(url string) (int, []byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// httpPost sends body as JSON, naming the tenant and the request id
// when they are not empty.
func httpPost(url, tenant, requestID string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Deviant-Tenant", tenant)
	}
	if requestID != "" {
		req.Header.Set("X-Deviant-Request-Id", requestID)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// promSamples is one /metrics scrape: series (name plus labels, as
// printed) to value.
type promSamples map[string]float64

// scrape reads a daemon's Prometheus text exposition.
func scrape(url string) (promSamples, error) {
	code, body, err := httpGet(url + "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	out := promSamples{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// delta is after minus before for one series (absent series count 0).
func delta(before, after promSamples, series string) float64 {
	return after[series] - before[series]
}
