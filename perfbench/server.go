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
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running eumdns process.
type server struct {
	cmd     *exec.Cmd
	port    int
	admin   string // host:port of the admin listener, "" when untraced
	logPath string
	log     *os.File
	setupS  float64
	exited  chan error // receives the exec's Wait result
}

// serverArgs are the flags every benchmark server runs with. The map
// refresh loop and the staleness watchdog are off: a republish bumps the
// epoch and orphans every answer-cache entry mid-phase, and without
// refreshes the watchdog would degrade answers 30 s after boot. The map
// each run serves is therefore the boot map, which the in-process
// reference System reproduces exactly.
func serverArgs(blocks, port int) []string {
	return []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-blocks", strconv.Itoa(blocks),
		"-map-refresh", "0",
		"-stale-max-age", "0",
	}
}

// startServer execs eumdns (pinned when o.pinned) and waits for the first
// correct answer to probe, which the caller checks with ok. setupS is the
// time from exec to that answer.
func startServer(o options, wl workload, traced bool, tag string, probe []byte, ok func([]byte) bool) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{port: port, logPath: outPath(o, fmt.Sprintf("eumdns-%s-%s.log", wl.name, tag))}
	args := serverArgs(wl.blocks, port)
	if traced {
		ap, err := freePort()
		if err != nil {
			return nil, err
		}
		s.admin = fmt.Sprintf("127.0.0.1:%d", ap)
		args = append(args, "-admin", s.admin)
	}
	name := o.eumdns
	if o.pinned {
		args = append([]string{"-c", serverCPU, o.eumdns}, args...)
		name = "taskset"
	}
	if s.log, err = os.Create(s.logPath); err != nil {
		return nil, err
	}
	s.cmd = exec.Command(name, args...)
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	// A benchmark killed mid-run takes its server with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Env = os.Environ()
	if traced {
		s.cmd.Env = append(s.cmd.Env, "GODEBUG=gctrace=1")
	}
	c, err := dialUDP(port)
	if err != nil {
		s.log.Close()
		return nil, err
	}
	defer c.close()
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		s.log.Close()
		return nil, fmt.Errorf("start eumdns: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- s.cmd.Wait() }()
	var buf [slotSize]byte
	deadline := start.Add(120 * time.Second)
	var lastSend time.Time
	for {
		select {
		case err := <-exited:
			s.log.Close()
			return nil, fmt.Errorf("eumdns exited during start-up (%v); see %s", err, s.logPath)
		default:
		}
		now := time.Now()
		if now.After(deadline) {
			s.stopWith(exited)
			return nil, fmt.Errorf("eumdns gave no correct answer within 120s; see %s", s.logPath)
		}
		if now.Sub(lastSend) >= 2*time.Millisecond {
			_, _ = syscall.Write(c.fd, probe)
			lastSend = now
		}
		if n, err := syscall.Read(c.fd, buf[:]); err == nil && ok(buf[:n]) {
			s.setupS = time.Since(start).Seconds()
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.exited = exited
	return s, nil
}

// stop terminates the server and waits for it to exit.
func (s *server) stop() { s.stopWith(s.exited) }

func (s *server) stopWith(exited chan error) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
	}
	s.log.Close()
}

// clockTicks is USER_HZ, the unit of /proc CPU times: 100 on Linux.
const clockTicks = 100

// cpu returns the server's cumulative user and system CPU seconds
// (/proc/<pid>/stat fields 14 and 15, in clock ticks).
func (s *server) cpu() (user, sys float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+2:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc stat")
	}
	u, _ := strconv.ParseFloat(f[11], 64)
	y, _ := strconv.ParseFloat(f[12], 64)
	return u / clockTicks, y / clockTicks, nil
}

// hwmMB returns the server's peak resident set (VmHWM) in MiB.
func (s *server) hwmMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return statusKB(b, "VmHWM:") / 1024, nil
}

func statusKB(status []byte, key string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == key {
			v, _ := strconv.ParseFloat(f[1], 64)
			return v
		}
	}
	return 0
}

// scrape reads the server's /metrics into name → value (histogram _sum
// and _count series included; bucket series skipped).
func (s *server) scrape() (map[string]float64, error) {
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + s.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, l := range strings.Split(string(body), "\n") {
		if l == "" || l[0] == '#' || strings.Contains(l, "{") {
			continue
		}
		f := strings.Fields(l)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			m[f[0]] = v
		}
	}
	return m, nil
}

// gcCycles counts the GC cycles gctrace has logged so far.
func (s *server) gcCycles() int {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return 0
	}
	n := 0
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, "gc ") {
			n++
		}
	}
	return n
}

// freePort returns a loopback port free for both UDP and TCP right now.
func freePort() (int, error) {
	for i := 0; i < 20; i++ {
		u, err := net.ListenPacket("udp4", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		port := u.LocalAddr().(*net.UDPAddr).Port
		t, err := net.Listen("tcp4", fmt.Sprintf("127.0.0.1:%d", port))
		u.Close()
		if err == nil {
			t.Close()
			return port, nil
		}
	}
	return 0, fmt.Errorf("no free loopback port")
}

// udpCounters reads the Udp line of /proc/net/snmp. The counters cover
// every socket in this network namespace, not only the benchmark's.
func udpCounters() (map[string]float64, error) {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return nil, err
	}
	var hdr []string
	for _, l := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(l, "Udp: ") {
			continue
		}
		f := strings.Fields(l)[1:]
		if hdr == nil {
			hdr = f
			continue
		}
		m := map[string]float64{}
		for i := range f {
			if i < len(hdr) {
				m[hdr[i]], _ = strconv.ParseFloat(f[i], 64)
			}
		}
		return m, nil
	}
	return nil, fmt.Errorf("no Udp line in /proc/net/snmp")
}
