package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"time"

	"repro/internal/join"
	"repro/internal/server"
)

// exactCounters are the counts that must repeat exactly across runs of
// one seed; the traced run compares its untraced and traced passes.
type exactCounters struct {
	IndexBytes     int64  `json:"index_bytes"`
	PostingFetches uint64 `json:"posting_fetches"`
	JoinRows       uint64 `json:"join_rows"`
	PlanHits       uint64 `json:"plan_cache_hits"`
	PlanMisses     uint64 `json:"plan_cache_misses"`
	EstRows        uint64 `json:"plan_estimated_rows"`
	ActualRows     uint64 `json:"plan_actual_rows"`
	Failed         int    `json:"failed"`
	Answers        uint64 `json:"answers_digest"`
}

// pass is what one run of the operation script measured.
type pass struct {
	queryNS   []int64            // client latency of every query
	opNS      []int64            // client latency of every operation, in script order
	writeNS   map[opKind][]int64 // client latency of every write, by kind
	tookNS    map[opKind][]int64 // server took_ns of every write, by kind
	busyNS    int64              // sum of all operation latencies
	queries   int
	attempted int
	failed    int // protocol errors + wrong answers + failed restart checks
	protocol  int // transport errors and non-200 answers (429s included)
	wrong     int // answers that disagree with the oracle
	restart   int // restart checks that failed
	appended  int // trees acknowledged by /append
	segSum    int // sum over queries of the segment count then served
	spaceAmp  float64
	compactB  []int64 // on-disk bytes right after each compaction
	liveTrees int     // live trees at the end
	endBytes  int64   // on-disk B+Tree bytes at the end
	allocB    uint64  // bytes allocated by the process during the pass
	numGC     uint32
	rssMB     float64 // resident set after the pass, servers up, after a forced GC
	exact     exactCounters
	served    map[int][]join.Match // query index -> served window (first occurrence)
	wrongQs   map[int]bool         // distinct queries answered wrongly at least once
	rids      map[string]int       // request id -> query index (queries only)

	setup      float64
	indexBytes int64
	replay     *replayStats
}

// measure runs the workload script against d once, checking every
// answer. tr, when set, records a client span per operation.
func measure(d *deployment, in *inputs, tr *tracer) (*pass, error) {
	p := &pass{
		writeNS: map[opKind][]int64{},
		tookNS:  map[opKind][]int64{},
		served:  map[int][]join.Match{},
		rids:    map[string]int{},
		wrongQs: map[int]bool{},
	}
	before, err := d.stats()
	if err != nil {
		return nil, err
	}
	lv := newLiveSet(in)
	digest := fnv.New64a()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i, o := range in.ops {
		rid := fmt.Sprintf("op%06d", i)
		p.attempted++
		var status int
		var body []byte
		var ns int64
		var err error
		switch o.kind {
		case opQuery:
			src := in.queries[o.arg]
			start := time.Now()
			status, body, err = d.get(in.path, src, in.limit, rid)
			ns = time.Since(start).Nanoseconds()
			tr.client(rid, start, ns)
			p.queryNS = append(p.queryNS, ns)
			p.queries++
			p.rids[rid] = o.arg
			p.segSum += lv.segments
		default:
			var method, path string
			var payload []byte
			method, path, payload, err = lv.request(o)
			if err != nil {
				return nil, err
			}
			var pre server.StatsResponse
			if o.kind == opCompact {
				if pre, err = d.stats(); err != nil {
					return nil, err
				}
			}
			start := time.Now()
			status, body, err = d.do(method, d.front+path, bytes.NewReader(payload), rid)
			ns = time.Since(start).Nanoseconds()
			tr.client(rid, start, ns)
			p.writeNS[o.kind] = append(p.writeNS[o.kind], ns)
			if o.kind == opCompact && err == nil && status == http.StatusOK {
				post, serr := d.stats()
				if serr != nil {
					return nil, serr
				}
				p.compactB = append(p.compactB, post.Serving.SegmentBytes)
				p.spaceAmp = max(p.spaceAmp, float64(pre.Serving.SegmentBytes)/float64(post.Serving.SegmentBytes))
			}
		}
		p.busyNS += ns
		p.opNS = append(p.opNS, ns)
		if err != nil || status != http.StatusOK {
			p.protocol++
			p.failed++
			continue
		}
		ok, err := check(p, in, lv, o, body, digest)
		if err != nil {
			return nil, fmt.Errorf("op %d (%s): %w", i, o.kind, err)
		}
		if !ok {
			p.wrong++
			p.failed++
			if o.kind == opQuery {
				p.wrongQs[o.arg] = true
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	p.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	p.numGC = ms1.NumGC - ms0.NumGC

	after, err := d.stats()
	if err != nil {
		return nil, err
	}
	p.liveTrees, p.endBytes = after.Index.LiveTrees, after.Index.IndexBytes
	p.rssMB = settledRSSMB()
	p.exact = exactCounters{
		IndexBytes:     after.Index.IndexBytes,
		PostingFetches: after.Serving.PostingFetches - before.Serving.PostingFetches,
		PlanHits:       after.Serving.PlanCacheHits - before.Serving.PlanCacheHits,
		PlanMisses:     after.Serving.PlanCacheMisses - before.Serving.PlanCacheMisses,
		EstRows:        after.Serving.PlanEstimatedRows - before.Serving.PlanEstimatedRows,
		ActualRows:     after.Serving.PlanActualRows - before.Serving.PlanActualRows,
		JoinRows:       p.exact.JoinRows,
		Failed:         p.failed,
		Answers:        digest.Sum64(),
	}
	if in.batches != nil {
		if err := restartCheck(d, in, lv, p); err != nil {
			return nil, err
		}
		p.exact.Failed = p.failed
	}
	return p, nil
}

// wireResult is the part of a /search or /count answer the checks read.
type wireResult struct {
	Count     int                `json:"count"`
	Matches   []server.MatchJSON `json:"matches"`
	Truncated bool               `json:"truncated"`
	TookNS    int64              `json:"took_ns"`
	Stats     *server.StatsJSON  `json:"stats"`
	// Write answers.
	Trees      int  `json:"trees"`
	Segments   int  `json:"segments"`
	Deleted    int  `json:"deleted"`
	Compacted  bool `json:"compacted"`
	LiveTrees  int  `json:"live_trees"`
	Generation int  `json:"generation"`
}

// check compares one answer with the oracle (queries) or folds a
// write's acknowledgement into the benchmark's own copy of the live
// tree list (writes). ok=false marks a wrong answer.
func check(p *pass, in *inputs, lv *liveSet, o op, body []byte, digest hash.Hash64) (bool, error) {
	var r wireResult
	if err := json.Unmarshal(body, &r); err != nil {
		return false, fmt.Errorf("decoding answer: %w", err)
	}
	// Everything but the timings goes into the answers digest.
	fmt.Fprintln(digest, r.Count, r.Matches, r.Truncated, r.Trees, r.Segments, r.Deleted, r.Compacted, r.LiveTrees, r.Generation)
	switch o.kind {
	case opAppend:
		p.tookNS[o.kind] = append(p.tookNS[o.kind], r.TookNS)
		p.appended += r.Trees
		return lv.appended(o, r), nil
	case opDelete:
		p.tookNS[o.kind] = append(p.tookNS[o.kind], r.TookNS)
		return lv.deleted(r), nil
	case opCompact:
		p.tookNS[o.kind] = append(p.tookNS[o.kind], r.TookNS)
		return lv.compacted(r), nil
	}
	if r.Stats != nil {
		p.exact.JoinRows += r.Stats.JoinRows
	}
	if in.batches != nil {
		return r.Count == lv.count(o.arg), nil
	}
	got := make([]join.Match, len(r.Matches))
	for i, m := range r.Matches {
		got[i] = join.Match{TID: m.TID, Root: m.Root}
	}
	if _, ok := p.served[o.arg]; !ok {
		p.served[o.arg] = got
	}
	want := in.oracle[o.arg]
	n := want.count
	if in.limit > 0 {
		n = min(n, in.limit)
	}
	n = min(n, answerPrefix)
	if !slices.Equal(got, want.first[:n]) {
		return false, nil
	}
	if r.Truncated {
		// A truncated count is a lower bound on the exact total.
		return r.Count <= want.count && r.Count >= len(got), nil
	}
	return r.Count == want.count, nil
}

// liveSet is the benchmark's own model of the index's tree list under
// writes: appends go at the end, deletes tombstone tids, a compaction
// drops the tombstoned trees and renumbers the rest in order. Trees
// are named by their position in corpus ++ batches, the list the
// oracle answered per tree.
type liveSet struct {
	in       *inputs
	tids     []int32 // tid -> tree position
	dead     []bool  // tid -> tombstoned
	alive    []bool  // tree position -> currently live
	rng      *rand.Rand
	pending  []int // tids of the delete in flight
	segments int
}

func newLiveSet(in *inputs) *liveSet {
	lv := &liveSet{in: in, segments: 1, rng: rand.New(rand.NewSource(in.deleteSeed))}
	lv.alive = make([]bool, len(in.corpus)+len(in.batches)*ingestBatch)
	for i := range in.corpus {
		lv.tids = append(lv.tids, int32(i))
		lv.dead = append(lv.dead, false)
		lv.alive[i] = true
	}
	return lv
}

// request renders the HTTP request of one write.
func (lv *liveSet) request(o op) (method, path string, body []byte, err error) {
	switch o.kind {
	case opAppend:
		return http.MethodPost, "/append", lv.in.batches[o.arg], nil
	case opDelete:
		lv.pending = lv.pending[:0]
		for len(lv.pending) < o.arg {
			tid := lv.rng.Intn(len(lv.tids))
			if !lv.dead[tid] && !slices.Contains(lv.pending, tid) {
				lv.pending = append(lv.pending, tid)
			}
		}
		body, err := json.Marshal(server.DeleteRequest{TIDs: lv.pending})
		return http.MethodPost, "/delete", body, err
	case opCompact:
		return http.MethodPost, "/compact", nil, nil
	}
	return "", "", nil, fmt.Errorf("not a write: %s", o.kind)
}

func (lv *liveSet) appended(o op, r wireResult) bool {
	start := len(lv.in.corpus) + o.arg*ingestBatch // tree position of the batch's first tree
	for i := 0; i < ingestBatch; i++ {
		lv.tids = append(lv.tids, int32(start+i))
		lv.dead = append(lv.dead, false)
		lv.alive[start+i] = true
	}
	lv.segments = r.Segments
	return r.Trees == ingestBatch
}

func (lv *liveSet) deleted(r wireResult) bool {
	for _, tid := range lv.pending {
		lv.dead[tid] = true
		lv.alive[lv.tids[tid]] = false
	}
	return r.Deleted == len(lv.pending) && r.LiveTrees == lv.live()
}

func (lv *liveSet) compacted(r wireResult) bool {
	var tids []int32
	for tid, pos := range lv.tids {
		if !lv.dead[tid] {
			tids = append(tids, pos)
		}
	}
	lv.tids = tids
	lv.dead = make([]bool, len(tids))
	lv.segments = r.Segments
	return r.Compacted && r.Segments == 1 && r.LiveTrees == len(tids)
}

// live counts the live trees.
func (lv *liveSet) live() int {
	n := 0
	for _, d := range lv.dead {
		if !d {
			n++
		}
	}
	return n
}

// count is the oracle's exact count of query qi over the live trees.
func (lv *liveSet) count(qi int) int {
	n := 0
	for _, h := range lv.in.perTree[qi] {
		if lv.alive[h.tree] {
			n += int(h.count)
		}
	}
	return n
}

// restartCheck closes the ingest node's index, reopens the directory
// in a fresh server and checks every distinct query and the tree count
// again. Each check is one attempted operation.
func restartCheck(d *deployment, in *inputs, lv *liveSet, p *pass) error {
	n := d.nodes[0]
	if err := n.stop(); err != nil {
		return fmt.Errorf("closing before restart: %w", err)
	}
	d.nodes = d.nodes[:0]
	n2, err := startNode(n.dir, nil)
	if err != nil {
		return fmt.Errorf("reopening after restart: %w", err)
	}
	d.nodes = append(d.nodes, n2)
	d.front = n2.url
	d.client.CloseIdleConnections()
	p.attempted++
	if n2.ix.NumTrees() != len(lv.tids) || n2.ix.Stats().LiveTrees != lv.live() {
		p.restart++
		p.failed++
	}
	for qi, src := range in.queries {
		p.attempted++
		status, body, err := d.get(in.path, src, 0, fmt.Sprintf("restart%04d", qi))
		var r wireResult
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &r) != nil || r.Count != lv.count(qi) {
			p.restart++
			p.failed++
			p.wrongQs[qi] = true
		}
	}
	return nil
}

// stats sums /stats over every node.
func (d *deployment) stats() (server.StatsResponse, error) {
	var sum server.StatsResponse
	for _, n := range d.nodes {
		status, body, err := d.do(http.MethodGet, n.url+"/stats", nil, "")
		if err != nil || status != http.StatusOK {
			return sum, fmt.Errorf("GET /stats: status %d, %v", status, err)
		}
		var st server.StatsResponse
		if err := json.Unmarshal(body, &st); err != nil {
			return sum, err
		}
		sum.Index.LiveTrees += st.Index.LiveTrees
		sum.Index.IndexBytes += st.Index.IndexBytes
		sum.Index.Segments += st.Index.Segments
		sum.Serving.PostingFetches += st.Serving.PostingFetches
		sum.Serving.PlanCacheHits += st.Serving.PlanCacheHits
		sum.Serving.PlanCacheMisses += st.Serving.PlanCacheMisses
		sum.Serving.PlanEstimatedRows += st.Serving.PlanEstimatedRows
		sum.Serving.PlanActualRows += st.Serving.PlanActualRows
		sum.Serving.SegmentBytes += st.Serving.SegmentBytes
	}
	return sum, nil
}
