package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, opt Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{})
	payload := []byte(`{"satisfied":true}` + "\n")
	if err := s.Put("report", "abcd1234", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("report", "abcd1234")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	if _, ok := s.Get("report", "ffff0000"); ok {
		t.Fatal("Get of absent key hit")
	}
	if _, ok := s.Get("system", "abcd1234"); ok {
		t.Fatal("Get of same key under different kind hit")
	}
	st := s.Stats()
	if st.Artifacts != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Empty payloads are legal artifacts, distinct from misses.
	if err := s.Put("report", "empty0", nil); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("report", "empty0"); !ok || len(got) != 0 {
		t.Fatalf("empty artifact = %q, %v; want \"\", true", got, ok)
	}
}

// TestCorruptArtifactsReadAsMisses: every way an artifact can rot on
// disk — truncation (including mid-header), flipped payload bytes, a
// wrong magic, pure garbage, an empty file — reads as a clean miss,
// never an error, and the corrupt file is removed so the next Put heals
// the entry.
func TestCorruptArtifactsReadAsMisses(t *testing.T) {
	payload := []byte("a perfectly fine artifact payload")
	corruptions := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty file", func(b []byte) []byte { return nil }},
		{"short header", func(b []byte) []byte { return b[:headerSize-3] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-5] }},
		{"flipped payload byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[headerSize+2] ^= 0xff
			return c
		}},
		{"flipped length", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(magic)+4] ^= 0x01
			return c
		}},
		{"wrong magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c, "NOTANART")
			return c
		}},
		{"pure garbage", func(b []byte) []byte { return []byte("%PDF-1.4 definitely not an artifact") }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s := mustOpen(t, Options{})
			if err := s.Put("report", "deadbeef", payload); err != nil {
				t.Fatal(err)
			}
			path := s.path("report", "deadbeef")
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(img), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("report", "deadbeef"); ok {
				t.Fatalf("corrupt artifact served as a hit: %q", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt artifact not removed (stat err %v)", err)
			}
			if s.Stats().Corrupt != 1 {
				t.Fatalf("corrupt counter = %d, want 1", s.Stats().Corrupt)
			}
			// The entry heals on the next Put.
			if err := s.Put("report", "deadbeef", payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("report", "deadbeef"); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("healed artifact = %q, %v", got, ok)
			}
		})
	}
}

// TestConcurrentWritersConverge: many goroutines writing the same key
// (with different payloads, harsher than the serving layer's identical
// ones) leave exactly one complete, valid artifact, and every
// concurrent read sees either a miss or one of the written payloads in
// full — never an interleaving.
func TestConcurrentWritersConverge(t *testing.T) {
	s := mustOpen(t, Options{})
	const writers = 16
	payloads := make([][]byte, writers)
	valid := make(map[string]bool, writers)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 4096+i)
		valid[string(payloads[i])] = true
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := s.Put("report", "cafe00", payloads[i]); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, ok := s.Get("report", "cafe00"); ok && !valid[string(got)] {
					t.Errorf("read a payload no writer wrote (%d bytes)", len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	got, ok := s.Get("report", "cafe00")
	if !ok || !valid[string(got)] {
		t.Fatalf("final artifact invalid (ok=%v, %d bytes)", ok, len(got))
	}
	// Exactly one artifact file and no leaked temp files.
	dir := filepath.Dir(s.path("report", "cafe00"))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cafe00.art" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want exactly [cafe00.art]", names)
	}
}

// TestGCBoundsSizeAndNeverBreaksReads: a store over its bound evicts
// down to ~80%, and readers hammering the store during eviction only
// ever see full valid payloads or clean misses.
func TestGCBoundsSizeAndNeverBreaksReads(t *testing.T) {
	// 64 KiB bound, 1 KiB artifacts: eviction triggers repeatedly.
	s := mustOpen(t, Options{MaxBytes: 64 << 10})
	payload := bytes.Repeat([]byte("x"), 1024)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if got, ok := s.Get("report", fmt.Sprintf("%08x", i%256)); ok && !bytes.Equal(got, payload) {
					t.Errorf("reader %d: partial or corrupt payload (%d bytes)", r, len(got))
					return
				}
			}
		}(r)
	}
	for i := 0; i < 256; i++ {
		if err := s.Put("report", fmt.Sprintf("%08x", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()

	st := s.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("store holds %d bytes over the %d bound after GC", st.Bytes, st.MaxBytes)
	}
	if st.Evicted == 0 {
		t.Fatal("256 KiB written into a 64 KiB store evicted nothing")
	}
	// Recent artifacts survive; something must still be resident.
	if st.Artifacts == 0 {
		t.Fatal("GC evicted everything")
	}
}

// TestReopenWarm: a second Open over the same directory serves the
// first process's artifacts — the warm-restart path — and the scan
// reinitializes occupancy.
func TestReopenWarm(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives restarts")
	for i := 0; i < 5; i++ {
		if err := s1.Put("report", fmt.Sprintf("%04x", i), payload); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Artifacts != 5 {
		t.Fatalf("reopened store sees %d artifacts, want 5", st.Artifacts)
	}
	for i := 0; i < 5; i++ {
		if got, ok := s2.Get("report", fmt.Sprintf("%04x", i)); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("artifact %d after reopen = %q, %v", i, got, ok)
		}
	}
}

// TestFsyncPut: the fsync path round-trips (durability itself cannot be
// asserted in a test, but the code path must work).
func TestFsyncPut(t *testing.T) {
	s := mustOpen(t, Options{Fsync: true})
	if err := s.Put("report", "0123", []byte("synced")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("report", "0123"); !ok || string(got) != "synced" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

// TestShortKeyFanout: keys shorter than the fan-out width still store
// and read.
func TestShortKeyFanout(t *testing.T) {
	s := mustOpen(t, Options{})
	if err := s.Put("report", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("report", "k"); !ok || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}
