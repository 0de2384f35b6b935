// Command rlserve runs the checking service: an HTTP/JSON front end
// over the relative-liveness, relative-safety, satisfaction, portfolio,
// and abstraction decision procedures, with per-request cancellation, a
// structural-hash keyed artifact cache, bounded-queue admission
// control, and graceful shutdown.
//
// Usage:
//
//	rlserve -addr :8080
//	rlserve -addr 127.0.0.1:0 -workers 8 -queue 64 -timeout 30s
//	rlserve -addr :8080 -slow 100ms -log-level info -log-json
//	rlserve -addr :8080 -store /var/lib/relive -store-max-bytes 1073741824
//	rlserve -addr :8081 -route http://127.0.0.1:8080,http://127.0.0.1:8082
//	rlserve -version
//
// With -store DIR the server layers a persistent content-addressed
// artifact store under its in-memory caches: completed reports survive
// restarts, and replicas pointing -store at one shared volume reuse
// each other's completed work. With -route the process runs as a shard
// router instead of a backend: requests are spread over the listed
// rlserve backends by the structural hash of their system (consistent
// hashing, bounded load), concurrent identical requests coalesce into
// one proxied check, and unhealthy backends are failed over
// automatically. Answers through the router are bit-identical to
// single-node rlserve.
//
// The bound address is printed to standard output once listening (so
// ":0" can be used in scripts and tests). Every request carries a trace
// ID (caller-supplied traceparent or minted); completed checks land in
// the flight recorder behind /debug/checks, and checks slower than
// -slow keep their full span tree for /debug/checks/{traceID}.
// -log-level enables per-request logging to stderr (debug, info, warn,
// error; default off), -log-json switches it to JSON lines.
// SIGINT/SIGTERM starts a graceful drain: /healthz flips to "draining"
// (503), new checks are rejected, in-flight checks finish, then the
// process exits. See docs/SERVICE.md for the endpoints and wire format.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"relive/internal/serve"
	"relive/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run starts the server and blocks until shutdown. A non-nil ready
// channel receives the bound address once listening (used by tests);
// the same address is always printed to stdout.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("rlserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port, :0 for an ephemeral port)")
	workers := fs.Int("workers", 0, "max concurrent checks (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "max queued checks beyond the running ones before shedding with 429 (0 = 64)")
	timeout := fs.Duration("timeout", 0, "default per-check timeout when the request sets none (0 = 60s)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight checks on shutdown")
	flight := fs.Int("flight", 0, "flight recorder size: completed checks kept for /debug/checks (0 = 256, negative disables tracing)")
	slow := fs.Duration("slow", 0, "slow-check threshold: checks at or over it keep their full span tree for /debug/checks/{traceID} (0 = 250ms)")
	logLevel := fs.String("log-level", "off", "per-request logging to stderr: debug, info, warn, error, or off")
	logJSON := fs.Bool("log-json", false, "log requests as JSON lines instead of text")
	version := fs.Bool("version", false, "print build info as JSON and exit")
	storeDir := fs.String("store", "", "persistent artifact store directory (empty = no persistence); point replicas at one shared volume to share completed work")
	storeMax := fs.Int64("store-max-bytes", 0, "artifact store size bound before LRU eviction (0 = 256 MiB)")
	storeFsync := fs.Bool("store-fsync", false, "fsync every artifact write (crash durability for the newest artifacts)")
	route := fs.String("route", "", "run as a shard router over these comma-separated rlserve backend URLs instead of serving checks")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		out := struct {
			serve.BuildInfo
			Store string `json:"store,omitempty"`
		}{BuildInfo: serve.Build(), Store: *storeDir}
		enc := json.NewEncoder(stdout)
		enc.Encode(out)
		return 0
	}
	logger, err := buildLogger(*logLevel, *logJSON, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "rlserve: %v\n", err)
		return 2
	}

	if *route != "" {
		return runRouter(*route, *addr, *drainTimeout, logger, stdout, stderr, ready)
	}

	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir, store.Options{MaxBytes: *storeMax, Fsync: *storeFsync})
		if err != nil {
			fmt.Fprintf(stderr, "rlserve: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "rlserve: store %s (%d artifacts warm)\n", st.Dir(), st.Stats().Artifacts)
	}

	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		FlightEntries:  *flight,
		SlowThreshold:  *slow,
		Logger:         logger,
		Store:          st,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "rlserve: %v\n", err)
		return 2
	}
	// Catch the stop signals before announcing the address: a SIGTERM
	// sent as soon as the server is up must drain it, not kill it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	fmt.Fprintf(stdout, "rlserve: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case sig := <-sigc:
		fmt.Fprintf(stderr, "rlserve: %v, draining\n", sig)
	case err := <-errc:
		fmt.Fprintf(stderr, "rlserve: %v\n", err)
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(stderr, "rlserve: drain: %v\n", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "rlserve: shutdown: %v\n", err)
		return 2
	}
	fmt.Fprintln(stderr, "rlserve: drained, exiting")
	return 0
}

// runRouter runs the process as a shard router over the comma-separated
// backend list until SIGINT/SIGTERM.
func runRouter(backendList, addr string, drainTimeout time.Duration, logger *slog.Logger, stdout, stderr io.Writer, ready chan<- string) int {
	var backends []string
	for _, b := range strings.Split(backendList, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}
	rt, err := serve.NewRouter(serve.RouterConfig{Backends: backends, Logger: logger})
	if err != nil {
		fmt.Fprintf(stderr, "rlserve: %v\n", err)
		return 2
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "rlserve: %v\n", err)
		return 2
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	fmt.Fprintf(stdout, "rlserve: routing %d backends on %s\n", len(backends), ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	hs := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case sig := <-sigc:
		fmt.Fprintf(stderr, "rlserve: %v, stopping router\n", sig)
	case err := <-errc:
		fmt.Fprintf(stderr, "rlserve: %v\n", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "rlserve: shutdown: %v\n", err)
		return 2
	}
	fmt.Fprintln(stderr, "rlserve: router stopped")
	return 0
}

// buildLogger constructs the request logger for -log-level/-log-json;
// "off" (the default) disables logging entirely (a nil logger).
func buildLogger(level string, jsonLines bool, w io.Writer) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "off", "":
		return nil, nil
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (debug, info, warn, error, off)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	if jsonLines {
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return slog.New(slog.NewTextHandler(w, opts)), nil
}
