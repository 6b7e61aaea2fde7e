package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
)

// This file is the follower half of replication: pull the leader's
// manifest over GET /manifest, fetch every segment the follower does
// not yet have over GET /segment/{name}/{file}, publish the manifest
// locally with the same atomic write-then-rename the engine uses, and
// let the caller /reload. Segments are immutable once published, so a
// segment directory that already exists locally is complete and is
// never re-fetched — each sync transfers only the delta, and a sync
// interrupted at any point leaves either the old manifest or the new
// one, never a half-state (incomplete downloads live under a hidden
// staging name until their final rename).

// SyncResult reports what one Sync did.
type SyncResult struct {
	// Changed reports the local manifest was replaced (the caller
	// should Reload its index handle).
	Changed bool
	// Generation is the leader manifest's publish counter.
	Generation int
	// Fetched is how many segment directories were downloaded.
	Fetched int
	// Segments is the manifest's segment list — what a cleanup of
	// stale local directories must keep (see RemoveStaleSegments).
	Segments []string
}

// Sync replicates the leader's published segment set into dir. The
// leader must serve a segmented (v3) index — a legacy single-directory
// index has no named segments to pull; one /append on the leader
// promotes it. Sync is not safe for concurrent use on the same dir.
func Sync(ctx context.Context, hc *http.Client, leader, dir string) (SyncResult, error) {
	var res SyncResult
	leader = strings.TrimRight(leader, "/")
	raw, err := fetch(ctx, hc, leader+"/manifest")
	if err != nil {
		return res, fmt.Errorf("cluster: pull manifest: %w", err)
	}
	var man core.Meta
	if err := json.Unmarshal(raw, &man); err != nil {
		return res, fmt.Errorf("cluster: bad leader manifest: %w", err)
	}
	if man.FormatVersion != core.FormatSegmented {
		return res, fmt.Errorf("cluster: leader index is not segmented (format %d); append once to promote it before following", man.FormatVersion)
	}
	res.Generation = man.Generation
	res.Segments = append(res.Segments, man.Segments...)
	if local, err := os.ReadFile(filepath.Join(dir, core.MetaFileName)); err == nil {
		var lm core.Meta
		if json.Unmarshal(local, &lm) == nil &&
			lm.FormatVersion == core.FormatSegmented && lm.Generation == man.Generation {
			return res, nil // already at this generation
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	for _, seg := range man.Segments {
		if !core.IsSegmentName(seg) {
			return res, fmt.Errorf("cluster: leader manifest names invalid segment %q", seg)
		}
		fetched, err := fetchSegment(ctx, hc, leader, dir, seg)
		if err != nil {
			return res, fmt.Errorf("cluster: segment %s: %w", seg, err)
		}
		if fetched {
			res.Fetched++
		}
	}
	// Publish the manifest byte-for-byte with the engine's own
	// write-then-rename, so a reader (or a crash) sees the old manifest
	// or the new one, nothing in between. Tombstones ride along: they
	// live in the manifest, not the segments.
	if err := core.PublishFile(dir, core.MetaFileName, raw); err != nil {
		return res, err
	}
	res.Changed = true
	return res, nil
}

// fetchSegment downloads one segment directory unless it already
// exists locally (segments are immutable: present means complete). The
// download stages under a hidden directory and renames into place only
// when every payload file landed, so a crashed or failed sync never
// leaves a half-segment under a live name.
func fetchSegment(ctx context.Context, hc *http.Client, leader, dir, seg string) (bool, error) {
	final := filepath.Join(dir, seg)
	if _, err := os.Stat(filepath.Join(final, core.MetaFileName)); err == nil {
		return false, nil
	}
	metaRaw, err := fetch(ctx, hc, leader+"/segment/"+seg+"/"+core.MetaFileName)
	if err != nil {
		return false, err
	}
	var meta core.Meta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return false, fmt.Errorf("bad segment meta: %w", err)
	}
	files, err := core.SegmentPayload(meta)
	if err != nil {
		return false, err
	}
	stage := filepath.Join(dir, ".sync-"+seg)
	if err := os.RemoveAll(stage); err != nil {
		return false, err
	}
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return false, err
	}
	for _, f := range files {
		dst := filepath.Join(stage, filepath.FromSlash(f))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return false, err
		}
		if f == core.MetaFileName {
			if err := os.WriteFile(dst, metaRaw, 0o644); err != nil {
				return false, err
			}
			continue
		}
		if err := download(ctx, hc, leader+"/segment/"+seg+"/"+f, dst); err != nil {
			os.RemoveAll(stage)
			return false, err
		}
	}
	if err := os.Rename(stage, final); err != nil {
		os.RemoveAll(stage)
		return false, err
	}
	return true, nil
}

// RemoveStaleSegments deletes local segment directories (and leftover
// sync staging directories) that the manifest no longer references —
// the follower-side reclaim after the leader compacts. Call it only
// after the index handle reloaded onto the new manifest; queries still
// pinned to old segments keep their mappings alive through the open
// file descriptors, so removal is safe even then.
func RemoveStaleSegments(dir string, keep []string) error {
	keepSet := make(map[string]bool, len(keep))
	for _, k := range keep {
		keepSet[k] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		stale := (core.IsSegmentName(name) && !keepSet[name]) ||
			strings.HasPrefix(name, ".sync-")
		if !stale {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// fetch GETs one URL fully into memory (manifests and segment metas
// are small).
func fetch(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &nodeError{url: url, status: resp.StatusCode, msg: readErrorBody(resp)}
	}
	return io.ReadAll(resp.Body)
}

// download GETs one URL straight to a file (segment payloads can be
// large; they never transit memory whole).
func download(ctx context.Context, hc *http.Client, url, dst string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &nodeError{url: url, status: resp.StatusCode, msg: readErrorBody(resp)}
	}
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
