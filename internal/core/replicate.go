package core

import (
	"fmt"
	"regexp"

	"repro/internal/treebank"
)

// This file is the replication contract between a serving node and the
// cluster layer: the exported pieces a follower needs to pull a
// published segment set over HTTP — the on-disk file names, the set of
// payload files a segment carries, and the validation of
// segment-relative paths a node may serve. (The router's merge uses the
// engine's own Rebase and ShardBounds.) Keeping them here means the
// wire layout can never drift from the index layout: both sides read
// the same constants.

// Exported on-disk file names of one index leaf. A segment directory
// is either one leaf (these three files plus its meta.json) or a set
// of shard-NNNN/ leaf directories, each with its own meta.json.
const (
	// MetaFileName is the index metadata file, and at a segmented root
	// the v3 manifest readers poll for replication.
	MetaFileName = metaFileName
	// IndexFileName is the B+Tree posting index of one leaf.
	IndexFileName = indexFileName
)

// segName matches published segment directory names (seg-NNNNNN); the
// legacy unpromoted root has no name and cannot be served remotely.
var segName = regexp.MustCompile(`^seg-[0-9]{6}$`)

// segFile matches the files a segment may legitimately serve: the
// segment's own meta.json and the three leaf payload files, either at
// the segment root (unsharded) or under one shard-NNNN/ directory.
// Anchored and free of separators beyond the one shard level, it
// rejects traversal (.., absolute paths) structurally.
var segFile = regexp.MustCompile(
	`^(?:shard-[0-9]{4}/)?(?:meta\.json|subtree\.idx|trees\.dat|trees\.idx)$`)

// IsSegmentName reports whether name is a valid published segment
// directory name (seg-NNNNNN).
func IsSegmentName(name string) bool { return segName.MatchString(name) }

// IsSegmentFile reports whether file is a path a segment may serve:
// relative, at most one shard-NNNN/ level deep, and naming one of the
// fixed payload files. Everything else — traversal, absolute paths,
// unknown names — is rejected.
func IsSegmentFile(file string) bool { return segFile.MatchString(file) }

// SegmentPayload lists the files (paths relative to the segment
// directory) that make up a segment with the given metadata, the
// segment's own meta.json included — the exact set a follower must
// fetch to replicate it. The meta decides the shape: a sharded segment
// carries one leaf per shard-NNNN/ directory, an unsharded one is a
// single leaf at the segment root.
func SegmentPayload(meta Meta) ([]string, error) {
	if meta.FormatVersion == FormatSegmented {
		return nil, fmt.Errorf("core: a segment cannot itself be segmented")
	}
	leaf := []string{MetaFileName, IndexFileName, treebank.DataFileName, treebank.IndexFileName}
	if meta.Shards == 0 {
		return leaf, nil
	}
	files := []string{MetaFileName}
	for s := 0; s < meta.Shards; s++ {
		for _, f := range leaf {
			files = append(files, shardDirName(s)+"/"+f)
		}
	}
	return files, nil
}
