package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/btree"
	"repro/internal/join"
	"repro/internal/planner"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/subtree"
)

// The replay re-executes each distinct query the traced pass served
// through the engine's layers one at a time — query.Parse, planner.New,
// btree.Tree.Get, postings.NewRootIterator, join.NewStreamOpts pulled
// to the request's limit — on the served nodes' index files, timing
// each layer. Every served request is bounded (the explicit limit or
// the server's match cap), so the streaming join is the path the
// server took. The replayed match window must equal the served one.

// replayStats sums the replayed layers over all distinct queries.
type replayStats struct {
	queries    int
	mismatches int
	parseNS    int64
	compileNS  int64
	pieces     int
	getNS      int64
	fetchBytes int64
	decodeNS   int64
	entries    int64
	joinNS     int64
	rows       int64
}

// replayRounds is how often the replay repeats over the query set; each
// layer reports the median round.
const replayRounds = 3

// replayIndex is one node's index opened for replay.
type replayIndex struct {
	tree  *btree.Tree
	stats *planner.Stats
	mss   int
	base  uint32
}

// replayAll replays every query served in p against d's node indexes.
func replayAll(d *deployment, p *pass, in *inputs) (*replayStats, error) {
	var ixs []replayIndex
	defer func() {
		for _, ix := range ixs {
			ix.tree.Close()
		}
	}()
	for i, n := range d.nodes {
		ix, err := openReplay(n.dir)
		if err != nil {
			return nil, err
		}
		ix.base = d.bases[i]
		ixs = append(ixs, ix)
	}
	qis := make([]int, 0, len(p.served))
	for qi := range p.served {
		qis = append(qis, qi)
	}
	sort.Ints(qis)
	limit := in.limit
	if limit == 0 {
		limit = answerPrefix
	}
	var rounds []replayStats
	for r := 0; r < replayRounds; r++ {
		var rs replayStats
		for _, qi := range qis {
			got, err := replayQuery(&rs, ixs, in.queries[qi], limit)
			if err != nil {
				return nil, fmt.Errorf("replaying %q: %w", in.queries[qi], err)
			}
			rs.queries++
			if !slices.Equal(got, p.served[qi]) {
				rs.mismatches++
			}
		}
		rounds = append(rounds, rs)
	}
	return medianRound(rounds), nil
}

// openReplay opens a node's B+Tree with the backend sisrv uses (mmap)
// and the planner statistics its meta.json carries, merged and sealed
// as the serving layer does when it opens the index.
func openReplay(dir string) (replayIndex, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return replayIndex{}, err
	}
	var meta struct {
		MSS      int             `json:"mss"`
		Coding   postings.Coding `json:"coding"`
		KeyStats *planner.Stats  `json:"key_stats"`
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		return replayIndex{}, err
	}
	if meta.Coding != postings.RootSplit {
		return replayIndex{}, fmt.Errorf("replay supports root-split indexes, %s is %v", dir, meta.Coding)
	}
	var stats *planner.Stats
	if meta.KeyStats != nil {
		stats = &planner.Stats{}
		stats.Merge(meta.KeyStats)
		stats.Seal(0)
	}
	t, err := btree.OpenWith(filepath.Join(dir, "subtree.idx"), btree.Options{Mmap: true})
	if err != nil {
		return replayIndex{}, err
	}
	return replayIndex{tree: t, stats: stats, mss: meta.MSS}, nil
}

// replayQuery runs one query through every layer on every node and
// returns the merged window of the first limit global matches, as the
// router (or a single node) returns it.
func replayQuery(rs *replayStats, ixs []replayIndex, src string, limit int) ([]join.Match, error) {
	var merged []join.Match
	for _, ix := range ixs {
		start := time.Now()
		q, err := query.Parse(src)
		rs.parseNS += time.Since(start).Nanoseconds()
		if err != nil {
			return nil, err
		}
		start = time.Now()
		pl, err := planner.New(q, ix.mss, postings.RootSplit, ix.stats)
		rs.compileNS += time.Since(start).Nanoseconds()
		if err != nil {
			return nil, err
		}
		rs.pieces += len(pl.Pieces)
		ms, err := replayPlan(rs, ix, pl, limit)
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			merged = append(merged, join.Match{TID: m.TID + ix.base, Root: m.Root})
		}
	}
	return merged[:min(limit, len(merged))], nil
}

// replayPlan fetches, decodes and joins one compiled plan on one index.
// The streaming join decodes lazily, so decode and join time are taken
// apart in three steps: a counting run learns how many entries of each
// relation the join consumes, a timed decode materializes exactly
// those, and a timed join over the decoded entries produces the
// window.
func replayPlan(rs *replayStats, ix replayIndex, pl *planner.Plan, limit int) ([]join.Match, error) {
	order := pl.Order
	if len(order) != len(pl.Pieces) {
		order = nil
	}
	payloads := make([][]byte, len(pl.Pieces))
	for i := range pl.Pieces {
		pi := i
		if order != nil {
			pi = order[i]
		}
		start := time.Now()
		val, found, err := ix.tree.Get([]byte(pl.Pieces[pi].Key))
		rs.getNS += time.Since(start).Nanoseconds()
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, nil // an absent piece: no matches here
		}
		rs.fetchBytes += int64(len(val))
		payload, err := stripCount(pl.Pieces[pi].Key, val)
		if err != nil {
			return nil, err
		}
		payloads[pi] = payload
	}
	opts := join.Options{Order: pl.Order, NoStack: pl.Strategy == planner.StrategyBlock}

	// Counting run (untimed).
	counters := make([]*countingCursor, len(pl.Pieces))
	rels := make([]join.StreamRelation, len(pl.Pieces))
	for i, pp := range pl.Pieces {
		counters[i] = &countingCursor{it: postings.NewRootIterator(payloads[i])}
		rels[i] = join.StreamRelation{Name: string(pp.Key), Slots: []int{pp.Root}, Cursor: counters[i]}
	}
	if _, _, err := pullStream(pl, rels, opts, limit); err != nil {
		return nil, err
	}

	// Timed decode of exactly the consumed entries.
	decoded := make([][]postings.IntervalEntry, len(pl.Pieces))
	start := time.Now()
	for i := range pl.Pieces {
		var arena postings.RefArena
		out := make([]postings.IntervalEntry, 0, counters[i].n)
		it := postings.NewRootIterator(payloads[i])
		for len(out) < counters[i].n && it.Next() {
			e := it.Entry()
			nodes := arena.Take(1)
			nodes[0] = e.NodeRef
			out = append(out, postings.IntervalEntry{TID: e.TID, Nodes: nodes})
		}
		if err := it.Err(); err != nil {
			return nil, err
		}
		decoded[i] = out
	}
	rs.decodeNS += time.Since(start).Nanoseconds()
	for i := range decoded {
		rs.entries += int64(len(decoded[i]))
	}

	// Timed join over the decoded entries.
	for i, pp := range pl.Pieces {
		rels[i] = join.StreamRelation{Name: string(pp.Key), Slots: []int{pp.Root}, Cursor: join.NewSliceCursor(decoded[i])}
	}
	start = time.Now()
	ms, rows, err := pullStream(pl, rels, opts, limit)
	rs.joinNS += time.Since(start).Nanoseconds()
	rs.rows += int64(rows)
	return ms, err
}

// pullStream pulls at most limit+1 matches from a streaming join, as
// the server's bounded evaluation does, and returns the first limit.
func pullStream(pl *planner.Plan, rels []join.StreamRelation, opts join.Options, limit int) ([]join.Match, int, error) {
	js, err := join.NewStreamOpts(context.Background(), pl.Query, rels, opts)
	if err != nil {
		return nil, 0, err
	}
	var out []join.Match
	for len(out) <= limit {
		m, ok := js.Next()
		if !ok {
			break
		}
		out = append(out, m)
	}
	if err := js.Err(); err != nil {
		return nil, 0, err
	}
	return out[:min(limit, len(out))], js.Rows(), nil
}

// stripCount removes the posting blob's leading entry count.
func stripCount(k subtree.Key, val []byte) ([]byte, error) {
	_, n := binary.Uvarint(val)
	if n <= 0 {
		return nil, fmt.Errorf("corrupt posting count for %q", k)
	}
	return val[n:], nil
}

// countingCursor decodes root-split postings lazily and counts them.
type countingCursor struct {
	it    *postings.RootIterator
	arena postings.RefArena
	n     int
}

func (c *countingCursor) Next() (postings.IntervalEntry, bool) {
	if !c.it.Next() {
		return postings.IntervalEntry{}, false
	}
	c.n++
	e := c.it.Entry()
	nodes := c.arena.Take(1)
	nodes[0] = e.NodeRef
	return postings.IntervalEntry{TID: e.TID, Nodes: nodes}, true
}

func (c *countingCursor) Err() error { return c.it.Err() }

// medianRound picks, layer by layer, the median of the replay rounds;
// the counts are identical in every round.
func medianRound(rounds []replayStats) *replayStats {
	out := rounds[0]
	pick := func(f func(*replayStats) *int64) {
		var xs []float64
		for i := range rounds {
			xs = append(xs, float64(*f(&rounds[i])))
		}
		*f(&out) = int64(median(xs))
	}
	pick(func(r *replayStats) *int64 { return &r.parseNS })
	pick(func(r *replayStats) *int64 { return &r.compileNS })
	pick(func(r *replayStats) *int64 { return &r.getNS })
	pick(func(r *replayStats) *int64 { return &r.decodeNS })
	pick(func(r *replayStats) *int64 { return &r.joinNS })
	for _, r := range rounds {
		out.mismatches = max(out.mismatches, r.mismatches)
	}
	return &out
}
