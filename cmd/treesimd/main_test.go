package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"treesim/internal/datagen"
	"treesim/internal/dataset"
	"treesim/internal/search"
	"treesim/internal/wal"
)

func writeTestData(t *testing.T) string {
	t.Helper()
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 12, SizeStd: 3, Labels: 5, Decay: 0.1}
	ts := datagen.New(spec, 9).Dataset(30, 5)
	path := filepath.Join(t.TempDir(), "data.trees")
	if err := dataset.SaveFile(path, ts); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunErrors: startup failures exit 1 and usage errors 2, each with a
// clear message. Retired flags — the tail profiler's -profile-every, the
// span-tree log's threshold and the trace exporter's endpoint and sampling
// rate — are unknown flags like any other.
func TestRunErrors(t *testing.T) {
	data := writeTestData(t)
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
		{"no source", nil, 1, "need an index source"},
		{"missing dataset", []string{"-data", filepath.Join(t.TempDir(), "nope.trees")}, 1, "loading dataset"},
		{"bad filter", []string{"-data", data, "-filter", "bogus"}, 1, "unknown filter"},
		{"filter a snapshot cannot hold", []string{"-data", data, "-filter", "none"}, 1, "cannot be served"},
		{"baseline not served", []string{"-data", data, "-filter", "histo"}, 1, "treesim-analyze"},
		{"branch level too low", []string{"-data", data, "-q", "1"}, 1, "outside [2, 16]"},
		{"branch level a snapshot cannot hold", []string{"-data", data, "-q", "17"}, 1, "outside [2, 16]"},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2, "flag provided but not defined"},
		{"retired flag", []string{"-data", data, "-profile-every", "1s"}, 2, "flag provided but not defined: -profile-every"},
		{"retired span-tree log", []string{"-data", data, "-slow-query", "0"}, 2, "flag provided but not defined: -slow-query"},
		{"retired exporter", []string{"-data", data, "-otlp-endpoint", "http://127.0.0.1:4318/v1/traces"}, 2, "flag provided but not defined: -otlp-endpoint"},
		{"retired export sampling", []string{"-data", data, "-trace-sample", "1"}, 2, "flag provided but not defined: -trace-sample"},
		{"bad index file", []string{"-index", data}, 1, "loading index"},
	}
	for _, c := range cases {
		var stderr bytes.Buffer
		if code := run(c.args, &stderr); code != c.code {
			t.Errorf("%s: exit %d, want %d", c.name, code, c.code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%s: stderr %q missing %q", c.name, stderr.String(), c.want)
		}
	}
}

// startServer runs the daemon in-process on an ephemeral port and waits
// until it serves, returning the base URL and the exit-code channel.
func startServer(t *testing.T, args []string) (string, chan int) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args = append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	exit := make(chan int, 1)
	go func() { exit <- run(args, io.Discard) }()

	deadline := time.Now().Add(10 * time.Second)
	var base string
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			base = "http://" + strings.TrimSpace(string(b))
			if resp, err := http.Get(base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == 200 {
					break
				}
			}
		}
		select {
		case code := <-exit:
			t.Fatalf("server exited early with %d", code)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return base, exit
}

// sigterm asks the daemon to drain (the signal handler is registered
// before the listener starts answering, so this is race-free) and waits
// for its exit code.
func sigterm(t *testing.T, exit chan int) int {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		return code
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
		return -1
	}
}

// TestLifecycleSIGTERM: the daemon builds an index from a dataset, serves
// queries and inserts, drains on SIGTERM with exit 0, persists a final
// snapshot that holds the insert, and warm-restarts from it.
func TestLifecycleSIGTERM(t *testing.T) {
	data := writeTestData(t)
	snap := filepath.Join(t.TempDir(), "index.tsix")

	base, exit := startServer(t, []string{"-data", data, "-snapshot", snap, "-snapshot-interval", "1h"})

	// A k-NN query works end to end.
	body := []byte(`{"tree":"a(b,c)","k":3}`)
	resp, err := http.Post(base+"/v1/knn", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("knn status %d", resp.StatusCode)
	}
	// Insert one tree so the final snapshot has something unsaved.
	resp, err = http.Post(base+"/v1/trees", "application/json",
		bytes.NewReader([]byte(`{"tree":"sig(term(x),y)"}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("insert status %d", resp.StatusCode)
	}

	if code := sigterm(t, exit); code != 0 {
		t.Fatalf("exit code %d after SIGTERM, want 0", code)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still answering after SIGTERM")
	}

	f, err := os.Open(snap)
	if err != nil {
		t.Fatalf("final snapshot missing: %v", err)
	}
	loaded, err := search.LoadIndex(f)
	f.Close()
	if err != nil {
		t.Fatalf("final snapshot corrupt: %v", err)
	}
	if loaded.Size() != 31 {
		t.Fatalf("snapshot holds %d trees, want 31 (30 dataset + 1 insert)", loaded.Size())
	}

	// Warm restart from the snapshot: the insert is still there.
	base2, exit2 := startServer(t, []string{"-snapshot", snap})
	resp, err = http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		IndexSize int `json:"index_size"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metrics.IndexSize != 31 {
		t.Fatalf("warm restart index size %d, want 31", metrics.IndexSize)
	}
	if code := sigterm(t, exit2); code != 0 {
		t.Fatalf("warm restart exit code %d, want 0", code)
	}
}

// writeSnapshot builds a small index and persists it, returning its path
// and size.
func writeSnapshot(t *testing.T, dir string) (string, int) {
	t.Helper()
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 12, SizeStd: 3, Labels: 5, Decay: 0.1}
	ts := datagen.New(spec, 9).Dataset(20, 5)
	ix := search.NewIndex(ts, search.NewBiBranch())
	path := filepath.Join(dir, "index.tsix")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := search.SaveIndex(f, ix); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, len(ts)
}

// TestCorruptSnapshotRefusesStart: a damaged snapshot must abort startup
// with a non-zero exit and a clear message, never serve silently.
func TestCorruptSnapshotRefusesStart(t *testing.T) {
	snap, _ := writeSnapshot(t, t.TempDir())
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var stderr bytes.Buffer
	if code := run([]string{"-snapshot", snap}, &stderr); code != 1 {
		t.Fatalf("exit %d with corrupt snapshot, want 1", code)
	}
	if !strings.Contains(stderr.String(), "corrupt") {
		t.Fatalf("stderr %q does not name the corruption", stderr.String())
	}
}

// TestBadWALSyncFlag: an unknown -wal-sync value is a usage error.
func TestBadWALSyncFlag(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-wal-sync", "sometimes"}, &stderr); code != 2 {
		t.Fatalf("exit %d with bad -wal-sync, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-wal-sync") {
		t.Fatalf("stderr %q does not name the flag", stderr.String())
	}
}

// TestFallbackGenerationWarmStart: when the current snapshot is corrupt
// but an older generation (written by a previous publication's shift
// chain) still loads, the daemon starts from the older generation
// instead of refusing — the whole point of -snapshot-keep.
func TestFallbackGenerationWarmStart(t *testing.T) {
	dir := t.TempDir()
	snap, base := writeSnapshot(t, dir)
	good, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap+".1", good, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x01
	if err := os.WriteFile(snap, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	url, exit := startServer(t, []string{"-snapshot", snap})
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		IndexSize int `json:"index_size"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metrics.IndexSize != base {
		t.Fatalf("index size %d after generation fallback, want %d", metrics.IndexSize, base)
	}
	if code := sigterm(t, exit); code != 0 {
		t.Fatalf("exit code %d after SIGTERM, want 0", code)
	}
}

// TestWALWarmStart: the daemon replays a write-ahead log over a snapshot
// at startup — the crash-recovery path as a real restarted process runs
// it — and reports the replay in /metrics.
func TestWALWarmStart(t *testing.T) {
	dir := t.TempDir()
	snap, base := writeSnapshot(t, dir)
	walPath := filepath.Join(dir, "wal.log")

	// Two acknowledged-but-unsnapshotted inserts, as the WAL of a killed
	// process would hold them: u32 dataset position + canonical text.
	l, err := wal.Open(walPath, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range []string{"warm(a,b)", "warm2(c(d),e)"} {
		rec := make([]byte, 4+len(text))
		binary.LittleEndian.PutUint32(rec[:4], uint32(base+i))
		copy(rec[4:], text)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	url, exit := startServer(t, []string{"-snapshot", snap, "-wal", walPath})
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		IndexSize   int    `json:"index_size"`
		WALReplayed uint64 `json:"wal_replayed_records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metrics.IndexSize != base+2 {
		t.Fatalf("index size %d after replay, want %d", metrics.IndexSize, base+2)
	}
	if metrics.WALReplayed != 2 {
		t.Fatalf("wal_replayed_records %d, want 2", metrics.WALReplayed)
	}
	if code := sigterm(t, exit); code != 0 {
		t.Fatalf("exit %d after SIGTERM, want 0", code)
	}

	// Recovery re-persisted the replayed state: a second start finds it
	// in the snapshot with nothing left to replay.
	url2, exit2 := startServer(t, []string{"-snapshot", snap, "-wal", walPath})
	resp, err = http.Get(url2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics.IndexSize, metrics.WALReplayed = 0, 99
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metrics.IndexSize != base+2 || metrics.WALReplayed != 0 {
		t.Fatalf("second start: size %d replayed %d, want %d and 0",
			metrics.IndexSize, metrics.WALReplayed, base+2)
	}
	if code := sigterm(t, exit2); code != 0 {
		t.Fatalf("second exit %d after SIGTERM, want 0", code)
	}
}
