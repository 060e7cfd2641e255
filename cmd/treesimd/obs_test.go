package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// logBuffer collects the daemon's stderr while the test reads it.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (lb *logBuffer) Write(p []byte) (int, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.Write(p)
}

func (lb *logBuffer) String() string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.String()
}

// startServerLogged is startServer with a captured log.
func startServerLogged(t *testing.T, args []string) (string, *logBuffer, chan int) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args = append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	var buf logBuffer
	exit := make(chan int, 1)
	go func() { exit <- run(args, &buf) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			base := "http://" + strings.TrimSpace(string(b))
			if resp, err := http.Get(base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == 200 {
					return base, &buf, exit
				}
			}
		}
		select {
		case code := <-exit:
			t.Fatalf("server exited early with %d (log: %s)", code, buf.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPprofRefusesNonLoopback: the debug listener never binds a routable
// address.
func TestPprofRefusesNonLoopback(t *testing.T) {
	data := writeTestData(t)
	for _, addr := range []string{"0.0.0.0:0", "8.8.8.8:6060", "no-port"} {
		var stderr bytes.Buffer
		if code := run([]string{"-data", data, "-pprof", addr}, &stderr); code != 2 {
			t.Errorf("-pprof %s: exit %d, want 2", addr, code)
		}
		if !strings.Contains(stderr.String(), "-pprof") {
			t.Errorf("-pprof %s: stderr %q lacks the flag name", addr, stderr.String())
		}
	}
}

// TestListenPprofLoopback: unit check of the address gate.
func TestListenPprofLoopback(t *testing.T) {
	for _, addr := range []string{"127.0.0.1:0", "localhost:0", "[::1]:0"} {
		ln, err := listenPprof(addr)
		if err != nil {
			t.Errorf("loopback %s refused: %v", addr, err)
			continue
		}
		ln.Close()
	}
	if ln, err := listenPprof("0.0.0.0:0"); err == nil {
		ln.Close()
		t.Error("0.0.0.0 accepted")
	}
}

// TestPprofEndpoint: -pprof serves the profile index on its own listener,
// a CPU profile taken there while the API listener answers k-NN requests
// comes back as pprof's gzip, and the main API listener does not expose
// /debug/pprof/. It is the only way to take a CPU profile of the daemon.
func TestPprofEndpoint(t *testing.T) {
	data := writeTestData(t)
	base, buf, exit := startServerLogged(t, []string{"-data", data, "-pprof", "127.0.0.1:0"})

	re := regexp.MustCompile(`msg="pprof listening" addr=(\S+)`)
	var paddr string
	deadline := time.Now().Add(5 * time.Second)
	for paddr == "" {
		if m := re.FindStringSubmatch(buf.String()); m != nil {
			paddr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pprof address never logged: %s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get("http://" + paddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index status %d body %q", resp.StatusCode, body)
	}

	stop := make(chan struct{})
	var traffic sync.WaitGroup
	traffic.Add(1)
	go func() {
		defer traffic.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(base+"/v1/knn", "application/json",
				strings.NewReader(`{"tree":"a(b,c)","k":2}`))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("knn during profile: status %d", resp.StatusCode)
				return
			}
		}
	}()
	resp, err = http.Get("http://" + paddr + "/debug/pprof/profile?seconds=1")
	close(stop)
	traffic.Wait()
	if err != nil {
		t.Fatal(err)
	}
	profile, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(profile) < 2 || profile[0] != 0x1f || profile[1] != 0x8b {
		t.Errorf("CPU profile: status %d, %d bytes, not gzip-framed: %q", resp.StatusCode, len(profile), profile[:min(len(profile), 80)])
	}

	if resp, err := http.Get(base + "/debug/pprof/"); err == nil {
		resp.Body.Close()
		if resp.StatusCode == 200 {
			t.Error("main listener exposes /debug/pprof/")
		}
	}

	if code := sigterm(t, exit); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
}
