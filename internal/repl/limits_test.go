package repl

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	rollingjoin "repro"
)

// serveLimited serves db's handler through NewHTTPServer on a loopback
// listener, so the serving layer's timeouts and body limits are live, and
// returns the base URL. adjust, when set, edits the server before it starts.
func serveLimited(t *testing.T, db *rollingjoin.DB, adjust func(*http.Server)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewHTTPServer("", NewServer(db).Handler())
	if adjust != nil {
		adjust(srv)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return "http://" + lis.Addr().String()
}

func postJSON(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestCommitBodyTooLarge sends a /v1/commit body one byte over
// MaxBodyBytes: the server must answer 413 without committing anything,
// and keep serving commits and reads afterwards.
func TestCommitBodyTooLarge(t *testing.T) {
	leader, err := rollingjoin.Open(rollingjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	testSchema(t, leader)
	url := serveLimited(t, leader, nil)

	prefix := `{"ops":[{"op":"insert","table":"users","row":[{"i":1},{"s":"`
	suffix := `"}]}]}`
	pad := MaxBodyBytes + 1 - len(prefix) - len(suffix)
	huge := prefix + strings.Repeat("x", pad) + suffix
	if len(huge) != MaxBodyBytes+1 {
		t.Fatalf("body is %d bytes, want %d", len(huge), MaxBodyBytes+1)
	}
	before := leader.LastCSN()
	if code := postJSON(t, url+"/v1/commit", huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized commit: status %d; want 413", code)
	}
	if got := leader.LastCSN(); got != before {
		t.Fatalf("oversized commit advanced the CSN %d -> %d", before, got)
	}

	ok := `{"ops":[{"op":"insert","table":"users","row":[{"i":2},{"s":"y"}]}]}`
	if code := postJSON(t, url+"/v1/commit", ok); code != http.StatusOK {
		t.Fatalf("commit after the oversized one: status %d; want 200", code)
	}
	resp, err := http.Get(url + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after the oversized commit: %d; want 200", resp.StatusCode)
	}
}

// TestStreamOutlivesReadTimeout holds a /v1/wal stream open past the
// server's ReadTimeout (shortened here) and checks that a later commit is
// still shipped on it: the timeout bounds reading requests, not the
// lifetime of a streaming response.
func TestStreamOutlivesReadTimeout(t *testing.T) {
	leader, err := rollingjoin.Open(rollingjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	testSchema(t, leader)
	const readTimeout = 150 * time.Millisecond
	url := serveLimited(t, leader, func(s *http.Server) { s.ReadTimeout = readTimeout })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	from := leader.Engine().Log().Size()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/wal?from=%d", url, from), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wal stream: status %d", resp.StatusCode)
	}

	time.Sleep(3 * readTimeout)
	if _, err := leader.Update(func(tx *rollingjoin.Tx) error {
		return tx.Insert("users", rollingjoin.Int(7), rollingjoin.Str("late"))
	}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if n, err := resp.Body.Read(buf); n == 0 {
		t.Fatalf("stream closed after the read timeout instead of shipping the commit: %v", err)
	}
}
