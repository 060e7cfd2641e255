package main

import (
	"bytes"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"

	"treesim/internal/datagen"
	"treesim/internal/search"
	"treesim/internal/server"
)

// startServer brings up a real server over a generated dataset, drives a
// few queries through it so the recorder has content, and returns the
// host:port the CLI should target.
func startServer(t *testing.T) (string, []string) {
	t.Helper()
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 12, SizeStd: 4, Labels: 5, Decay: 0.1}
	ts := datagen.New(spec, 7).Dataset(30, 5)
	ix := search.NewIndex(ts, search.NewBiBranch())
	s := server.New(ix, server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)

	var ids []string
	for i := 0; i < 5; i++ {
		resp, err := hs.Client().Post(hs.URL+"/v1/knn", "application/json",
			strings.NewReader(`{"tree":`+jsonString(ts[i].String())+`,"k":2}`))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.Header.Get("X-Request-Id"))
		resp.Body.Close()
	}
	return strings.TrimPrefix(hs.URL, "http://"), ids
}

func jsonString(s string) string {
	var b bytes.Buffer
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"', '\\':
			b.WriteByte('\\')
		}
		b.WriteRune(r)
	}
	b.WriteByte('"')
	return b.String()
}

// TestListGetSLO: list and get against a live server — and slo, profiles
// and profile, which went with the server endpoints they read, are unknown
// commands.
func TestListGetSLO(t *testing.T) {
	addr, ids := startServer(t)

	var out, errb bytes.Buffer
	if code := run([]string{"-addr", addr, "list"}, &out, &errb); code != 0 {
		t.Fatalf("list exit %d: %s", code, errb.String())
	}
	listing := out.String()
	if !strings.Contains(listing, "recorder:") || !strings.Contains(listing, "/v1/knn") {
		t.Fatalf("list output missing recorder header or endpoint:\n%s", listing)
	}

	// Every request landed in a fresh ring, so any served id is fetchable.
	out.Reset()
	if code := run([]string{"-addr", addr, "get", ids[0]}, &out, &errb); code != 0 {
		t.Fatalf("get exit %d: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{ids[0], "/v1/knn", "filter", "refine", "verified="} {
		if !strings.Contains(got, want) {
			t.Errorf("get output missing %q:\n%s", want, got)
		}
	}

	out.Reset()
	if code := run([]string{"-addr", addr, "get", "r00beef00"}, &out, &errb); code != 1 {
		t.Fatalf("get of unknown id exit %d, want 1", code)
	}

	for _, gone := range []string{"slo", "profiles", "profile"} {
		if code := run([]string{"-addr", addr, gone}, &out, &errb); code != 2 {
			t.Fatalf("%s exit %d, want 2 (unknown command)", gone, code)
		}
	}

	// Filters pass through: -error hides the all-200 traffic.
	out.Reset()
	if code := run([]string{"-addr", addr, "list", "-error"}, &out, &errb); code != 0 {
		t.Fatalf("list -error exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "no matching traces") {
		t.Fatalf("list -error over healthy traffic:\n%s", out.String())
	}
}

func TestUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("no-args exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Fatalf("no usage text: %s", errb.String())
	}
	if code := run([]string{"bogus"}, &out, &errb); code != 2 {
		t.Fatalf("unknown command exit %d, want 2", code)
	}
}
