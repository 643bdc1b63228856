package main

import (
	"bufio"
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
)

// dpmd as a child process, and what the driver reads about processes
// from /proc.

// dpmdArgs are the flags beyond dpmd's defaults: quiet logging, and the
// ingest daemon on a loopback UDP port with manual flushes (the ingest
// workload closes its windows itself) and 4.8 J per counted event.
func dpmdArgs(addr, udp string) []string {
	return []string{"-addr", addr, "-quiet", "-ingest-addr", udp,
		"-ingest-flush", "0", "-ingest-event-energy", "4.8"}
}

// proc is one dpmd child process.
type proc struct {
	cmd    *exec.Cmd
	base   string
	udp    string
	exited chan error
}

// freeAddrs reserves loopback TCP and UDP ports for a child. The ports
// are released before dpmd binds them, so a concurrent process could
// take one; startDpmd then fails rather than measuring the wrong thing.
func freeAddrs() (tcpAddr, udpAddr string, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	tcpAddr = l.Addr().String()
	l.Close()
	u, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	udpAddr = u.LocalAddr().String()
	u.Close()
	return tcpAddr, udpAddr, nil
}

// startDpmd execs dpmd and waits until /readyz answers 200.
func startDpmd(bin string) (*proc, error) {
	addr, udp, err := freeAddrs()
	if err != nil {
		return nil, fmt.Errorf("reserving ports: %w", err)
	}
	cmd := exec.Command(bin, dpmdArgs(addr, udp)...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// If the driver is killed mid-run, the kernel kills dpmd with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dpmd: %w", err)
	}
	p := &proc{cmd: cmd, base: "http://" + addr, udp: udp, exited: make(chan error, 1)}
	go func() { p.exited <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := probe.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return p, nil
			}
		}
		select {
		case err := <-p.exited:
			return nil, fmt.Errorf("dpmd exited before ready: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			p.stop() //nolint:errcheck
			return nil, errors.New("dpmd not ready within 10s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM and waits for a clean exit, killing dpmd if the
// graceful drain overruns.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling dpmd: %w", err)
	}
	select {
	case err := <-p.exited:
		if err != nil {
			return fmt.Errorf("dpmd exit: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck
		<-p.exited
		return errors.New("dpmd did not stop within 20s of SIGTERM; killed")
	}
}

// procCPU returns utime+stime of pid in seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15, i.e. 11 and 12 after the name.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	const clkTck = 100 // USER_HZ on Linux
	return (ut + st) / clkTck, nil
}

// procStatus returns a "Key:" line's first field from /proc/pid/status.
func procStatus(pid int, key string) (string, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			if fs := strings.Fields(v); len(fs) > 0 {
				return fs[0], nil
			}
		}
	}
	return "", fmt.Errorf("no %s in /proc/%d/status", key, pid)
}

// cpuListLen counts the CPUs in a list such as "0-1,4".
func cpuListLen(list string) int {
	n := 0
	for _, part := range strings.Split(list, ",") {
		lo, hi, ok := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			continue
		}
		b := a
		if ok {
			if b, err = strconv.Atoi(hi); err != nil {
				continue
			}
		}
		n += b - a + 1
	}
	return n
}

// selfCPU is this process's user+system CPU in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// udpRcvbufErrors reads the kernel's UDP receive-buffer drop counter.
func udpRcvbufErrors() (int64, error) {
	b, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, err
	}
	var head []string
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "Udp: ") {
			continue
		}
		f := strings.Fields(line)
		if head == nil {
			head = f
			continue
		}
		for i, h := range head {
			if h == "RcvbufErrors" && i < len(f) {
				return strconv.ParseInt(f[i], 10, 64)
			}
		}
	}
	return 0, errors.New("no Udp RcvbufErrors in /proc/net/snmp")
}
