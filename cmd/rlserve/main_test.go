package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRunServeAndGracefulShutdown boots the real binary path on an
// ephemeral port, drives a check over TCP, and shuts it down with
// SIGTERM — the lifecycle the CI smoke job and production supervisors
// rely on.
func TestRunServeAndGracefulShutdown(t *testing.T) {
	var out, errOut strings.Builder
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-timeout", "5s"}, &out, &errOut, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("server never became ready (stderr: %s)", errOut.String())
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	body := `{"system":"init idle\nidle request busy\nbusy result idle\n","ltl":"G F result"}`
	resp, err = http.Post("http://"+addr+"/v1/check/all", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		RelativeLiveness bool `json:"relativeLiveness"`
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check = %d: %s", resp.StatusCode, buf.String())
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.RelativeLiveness {
		t.Fatalf("expected relative liveness to hold: %s", buf.String())
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit = %d, want 0 (stderr: %s)", code, errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("server never exited after SIGTERM (stderr: %s)", errOut.String())
	}
	if !strings.Contains(out.String(), "listening on") {
		t.Fatalf("stdout missing listen line: %q", out.String())
	}
	if !strings.Contains(errOut.String(), "drained, exiting") {
		t.Fatalf("stderr missing drain line: %q", errOut.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errOut, nil); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if code := run([]string{"-addr", "256.256.256.256:99999"}, &out, &errOut, nil); code != 2 {
		t.Fatalf("bad addr exit = %d, want 2", code)
	}
}

// TestRunRejectsPar checks that the per-check parallelism flag is gone:
// checks run serially, one per worker slot.
func TestRunRejectsPar(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-addr", "127.0.0.1:0", "-par", "2"}, &out, &errOut, nil); code != 2 {
		t.Fatalf("-par 2 exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "flag provided but not defined: -par") {
		t.Fatalf("stderr does not name the unknown flag: %q", errOut.String())
	}
}
