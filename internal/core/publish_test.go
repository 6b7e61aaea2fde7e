package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPublishFileAtomic: while a reader parses the published file in a
// loop, repeated publishes never show it a torn or empty document —
// every read is one complete version, and versions never go backwards —
// and no temporary file is left behind.
func TestPublishFileAtomic(t *testing.T) {
	dir := t.TempDir()
	const padLen = 256 << 10 // large enough that one write is several syscalls
	pad := strings.Repeat("x", padLen)
	type doc struct {
		Generation int    `json:"generation"`
		Pad        string `json:"pad"`
	}
	publish := func(gen int) {
		t.Helper()
		raw, err := json.Marshal(doc{Generation: gen, Pad: pad})
		if err != nil {
			t.Fatal(err)
		}
		if err := PublishFile(dir, metaFileName, raw); err != nil {
			t.Fatalf("publish %d: %v", gen, err)
		}
	}
	publish(0)

	const publishes = 200
	done := make(chan error, 1)
	go func() {
		last := -1
		for last < publishes {
			raw, err := os.ReadFile(filepath.Join(dir, metaFileName))
			if err != nil {
				done <- err
				return
			}
			var d doc
			if err := json.Unmarshal(raw, &d); err != nil {
				done <- fmt.Errorf("torn read of %d bytes: %v", len(raw), err)
				return
			}
			if len(d.Pad) != padLen || d.Generation < last {
				done <- fmt.Errorf("read generation %d with %d pad bytes after generation %d", d.Generation, len(d.Pad), last)
				return
			}
			last = d.Generation
		}
		done <- nil
	}()
	for gen := 1; gen <= publishes; gen++ {
		publish(gen)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != metaFileName {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v after publishing, want only %s", names, metaFileName)
	}
	st, err := os.Stat(filepath.Join(dir, metaFileName))
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Fatalf("published file has mode %v, want 0644", st.Mode().Perm())
	}
}

// TestPublishFileFailureLeavesNoTemp: a publish whose rename fails
// (the target name is a directory) reports the error and removes its
// temporary file.
func TestPublishFileFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, metaFileName), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := PublishFile(dir, metaFileName, []byte("{}")); err == nil {
		t.Fatal("publish over a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("failed publish left %d entries behind, want only the directory", len(entries))
	}
}
