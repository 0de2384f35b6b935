package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strings"
)

// Trace identifiers. Every rlserve request (and every CLI trace export)
// is stamped with a W3C-trace-context-style ID: 16 random bytes as 32
// lowercase hex digits. The serving layer accepts and emits
// `traceparent` headers so the ID survives the hop through a future
// shard router, and the same ID keys the flight recorder and the
// exported JSON trace.

// NewTraceID returns a fresh random 32-hex-digit trace ID. It never
// returns the all-zero ID (invalid per the W3C spec).
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a fixed
		// fallback keeps tracing best-effort rather than panicking.
		copy(b[:], "relive-fallback!")
	}
	allZero := true
	for _, c := range b {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		b[15] = 1
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether s is a well-formed, non-zero 32-hex-digit
// trace ID.
func ValidTraceID(s string) bool {
	if len(s) != 32 {
		return false
	}
	nonZero := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			nonZero = true
		}
	}
	return nonZero
}

// ParseTraceparent extracts the trace ID from a traceparent header
// ("00-<32 hex>-<16 hex>-<2 hex>"). It returns ok=false for malformed
// headers, unknown versions, or the all-zero trace ID, in which case the
// caller should mint a fresh ID.
func ParseTraceparent(header string) (traceID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(header), "-")
	if len(parts) != 4 {
		return "", false
	}
	if len(parts[0]) != 2 || parts[0] == "ff" || !isHex(parts[0]) {
		return "", false
	}
	if !ValidTraceID(parts[1]) {
		return "", false
	}
	if len(parts[2]) != 16 || !isHex(parts[2]) || parts[2] == "0000000000000000" {
		return "", false
	}
	if len(parts[3]) != 2 || !isHex(parts[3]) {
		return "", false
	}
	return parts[1], true
}

// Traceparent renders a traceparent header carrying traceID with a
// fresh span ID and the sampled flag set.
func Traceparent(traceID string) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		copy(b[:], "reliveid")
	}
	spanID := hex.EncodeToString(b[:])
	if spanID == "0000000000000000" {
		spanID = "0000000000000001"
	}
	return "00-" + traceID + "-" + spanID + "-01"
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// recorderKey carries a check's Recorder through context.Context, so
// every layer of the check (core's pipeline, the buchi operations it
// calls, portfolio workers) reports to the recorder its caller chose.
type recorderKey struct{}

// ContextWithRecorder returns ctx carrying rec; checks run under the
// returned context report their spans and counters to rec. A nil ctx
// is treated as context.Background().
func ContextWithRecorder(ctx context.Context, rec Recorder) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, recorderKey{}, rec)
}

// RecorderFromContext returns the recorder carried by ctx, or nil (off)
// when ctx is nil or carries none.
func RecorderFromContext(ctx context.Context) Recorder {
	if ctx == nil {
		return nil
	}
	rec, _ := ctx.Value(recorderKey{}).(Recorder)
	return rec
}
