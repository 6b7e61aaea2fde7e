package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/join"
	"repro/internal/lingtree"
	"repro/internal/query"
	"repro/internal/workload"
	"repro/si"
)

// opKind is the kind of one client operation.
type opKind uint8

const (
	opQuery opKind = iota
	opAppend
	opDelete
	opCompact
)

// String names the operation kind in reports.
func (k opKind) String() string {
	return [...]string{"query", "append", "delete", "compact"}[k]
}

// op is one step of a workload script. For queries arg indexes
// inputs.queries; for appends it is the batch number; for deletes the
// number of live trees to tombstone. Compactions take no argument.
type op struct {
	kind opKind
	arg  int
}

// answer is the exact matcher's result for one query over a static
// corpus: the match count and its leading matches in (tid, root) order.
type answer struct {
	count int
	first []join.Match
}

// inputs is everything a workload generates from its seed before any
// server starts: the corpus, the distinct queries, the operation
// script and the oracle's answers. None of it is timed.
type inputs struct {
	corpus  []*lingtree.Tree   // set-up corpus; global tid = position
	queries []string           // distinct query texts
	ops     []op               // the measured script
	chunks  []int              // op index ending each chunk of the script; see e2e
	warm    []int              // query indexes sent (unchecked) during set-up warm-up
	path    string             // query endpoint: /search or /count
	limit   int                // /search limit parameter; 0 sends none (server cap)
	groups  int                // sisrv nodes, each a tid range; >1 puts sirouter in front
	parts   [][]*lingtree.Tree // corpus split into the nodes' tid ranges, renumbered from 0
	bases   []int              // global tid of each part's first tree

	// Read workloads: the oracle's answer per distinct query.
	oracle []answer
	// ingest: the /append bodies (bracketed trees, ingestBatch per
	// batch) and, per distinct query, the matches of every tree that
	// ever exists (base corpus, then the batches in order).
	batches [][]byte
	perTree [][]treeHits
	// ingest: seed of the delete-victim draws.
	deleteSeed int64
}

// workloads maps each --workload name to the generator of its inputs.
var workloads = map[string]func(options) (*inputs, error){
	"wh-router": whRouterInputs,
	"fb-page":   fbPageInputs,
	"ingest":    ingestInputs,
}

// Workload sizes. The operation counts scale with --seconds so a run
// lasts roughly that long on a 2-core host, but they never depend on
// how fast the host is: the same arguments always drive the same work.
const (
	whTrees        = 10000
	whGroups       = 2
	whQueriesPerS  = 180
	fbTrees        = 10000
	fbQueriesPerS  = 1200
	fbLimit        = 10
	fbWarm         = 1000
	fbZipfS        = 1.1
	fbPoolTarget   = 7300
	ingestBase     = 5000
	ingestBatch    = 50
	ingestStepsPS  = 6  // steps per --seconds
	ingestQueries  = 60 // /count queries per step
	ingestDelEvery = 4  // a /delete every this many steps
	ingestDelTrees = 10
	ingestCompact  = 10 // a /compact every this many steps
	ingestPool     = 256
	minQueries     = 1000 // p99 needs >= 10 samples beyond it
	answerPrefix   = 1000 // leading oracle matches kept per query (the server's match cap)
)

// Fixed seeds of the query-generation corpora: the FB pool does not
// vary with --seed, only the draws from it do.
const (
	fbClassifierSeed = 2012
	fbHeldOutSeed    = 2013
	fbHeldOutTrees   = 2000
)

// corpusSeed and appendSeed derive the corpus streams from --seed.
func corpusSeed(seed uint64) uint64 { return seed*1000003 + 17 }
func appendSeed(seed uint64) uint64 { return seed*1000003 + 29 }

// whRouterInputs: the paper's 48 WH queries in fixed cyclic order over
// two tid-range nodes behind the router, full match windows.
func whRouterInputs(o options) (*inputs, error) {
	in := &inputs{path: "/search", groups: whGroups}
	in.corpus = corpusgen.New(corpusSeed(o.seed)).Trees(whTrees)
	set := workload.WHQuerySet()
	for _, g := range workload.WHGroups {
		for _, q := range set[g] {
			in.queries = append(in.queries, q.String())
		}
	}
	n := roundUp(max(minQueries, whQueriesPerS*o.seconds), len(in.queries))
	for i := 0; i < n; i++ {
		in.ops = append(in.ops, op{kind: opQuery, arg: i % len(in.queries)})
	}
	for i := range in.queries {
		in.warm = append(in.warm, i)
	}
	in.chunks = evenChunks(len(in.ops))
	var err error
	in.oracle, err = oracleAnswers(in.corpus, in.queries, answerPrefix)
	return in, err
}

// fbPageInputs: Zipf draws over a fixed pool of FB-style queries,
// first page (limit 10) from one node.
func fbPageInputs(o options) (*inputs, error) {
	in := &inputs{path: "/search", limit: fbLimit, groups: 1}
	in.corpus = corpusgen.New(corpusSeed(o.seed)).Trees(fbTrees)
	pool := fbPool()
	draw := zipfDraws(int64(o.seed), len(pool))
	warm := zipfDraws(int64(o.seed)^0x5eed, len(pool))
	ids := map[int]int{} // pool index -> distinct query index
	use := func(p int) int {
		if i, ok := ids[p]; ok {
			return i
		}
		ids[p] = len(in.queries)
		in.queries = append(in.queries, pool[p])
		return ids[p]
	}
	for i := 0; i < fbWarm; i++ {
		in.warm = append(in.warm, use(warm()))
	}
	n := max(minQueries, fbQueriesPerS*o.seconds)
	for i := 0; i < n; i++ {
		in.ops = append(in.ops, op{kind: opQuery, arg: use(draw())})
	}
	in.chunks = evenChunks(len(in.ops))
	var err error
	in.oracle, err = oracleAnswers(in.corpus, in.queries, fbLimit)
	return in, err
}

// ingestInputs: one node over a base corpus; each step appends a
// batch, then runs /count queries; deletes and compactions at fixed
// steps.
func ingestInputs(o options) (*inputs, error) {
	in := &inputs{path: "/count", groups: 1, deleteSeed: int64(o.seed) ^ 0xde1e7e}
	in.corpus = corpusgen.New(corpusSeed(o.seed)).Trees(ingestBase)
	steps := ingestStepsPS * o.seconds
	if steps*ingestQueries < minQueries {
		steps = (minQueries + ingestQueries - 1) / ingestQueries
	}
	extra := corpusgen.New(appendSeed(o.seed)).Trees(steps * ingestBatch)
	for b := 0; b < steps; b++ {
		var buf bytes.Buffer
		for _, t := range extra[b*ingestBatch : (b+1)*ingestBatch] {
			if err := si.WriteTree(&buf, t); err != nil {
				return nil, err
			}
		}
		in.batches = append(in.batches, buf.Bytes())
	}
	pool := fbPool()[:ingestPool]
	draw := zipfDraws(int64(o.seed), len(pool))
	ids := map[int]int{}
	use := func(p int) int {
		if i, ok := ids[p]; ok {
			return i
		}
		ids[p] = len(in.queries)
		in.queries = append(in.queries, pool[p])
		return ids[p]
	}
	for i := 0; i < ingestQueries; i++ {
		in.warm = append(in.warm, use(draw()))
	}
	for s := 1; s <= steps; s++ {
		in.ops = append(in.ops, op{kind: opAppend, arg: s - 1})
		if s%ingestDelEvery == 0 {
			in.ops = append(in.ops, op{kind: opDelete, arg: ingestDelTrees})
		}
		if s%ingestCompact == 0 {
			in.ops = append(in.ops, op{kind: opCompact})
		}
		for i := 0; i < ingestQueries; i++ {
			in.ops = append(in.ops, op{kind: opQuery, arg: use(draw())})
		}
		if s%ingestCompact == 0 || s == steps {
			in.chunks = append(in.chunks, len(in.ops))
		}
	}
	all := append(append([]*lingtree.Tree(nil), in.corpus...), extra...)
	var err error
	in.perTree, err = oracleTreeHits(all, in.queries)
	return in, err
}

// fbPool returns the fixed pool of distinct FB-style queries: the FB
// query set of §6.1 (7 label-frequency classes × sizes 1..10) generated
// from successive fixed seeds until the pool holds fbPoolTarget
// queries, then shuffled by a fixed permutation so Zipf ranks mix
// sizes and classes.
func fbPool() []string {
	lc := workload.NewLabelClassifier(corpusgen.New(fbClassifierSeed).Trees(1000))
	heldOut := corpusgen.New(fbHeldOutSeed).Trees(fbHeldOutTrees)
	seen := map[string]bool{}
	var pool []string
	for s := uint64(1); len(pool) < fbPoolTarget && s <= 1000; s++ {
		set := workload.FBQuerySet(lc, heldOut, s)
		for _, cls := range workload.FBClasses {
			for _, q := range set[cls] {
				k := q.String()
				if !seen[k] {
					seen[k] = true
					pool = append(pool, k)
				}
			}
		}
	}
	sort.Strings(pool) // generation order must not leak into ranks
	r := rand.New(rand.NewSource(fbClassifierSeed))
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// zipfDraws returns a seeded generator of pool indexes, Zipf(fbZipfS)
// by rank.
func zipfDraws(seed int64, n int) func() int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), fbZipfS, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// partition splits the corpus into in.groups contiguous tid ranges at
// the boundaries a sharded build would choose; each part's trees are
// renumbered from 0, as one node's index expects.
func (in *inputs) partition() {
	bounds := core.ShardBounds(len(in.corpus), in.groups)
	for g := 0; g < in.groups; g++ {
		var part []*lingtree.Tree
		for i, t := range in.corpus[bounds[g]:bounds[g+1]] {
			c := *t
			c.TID = i
			part = append(part, &c)
		}
		in.parts = append(in.parts, part)
		in.bases = append(in.bases, bounds[g])
	}
}

// readChunks is how many equal chunks a read workload's script is cut
// into for the chunk-median metrics.
const readChunks = 5

// evenChunks cuts n operations into readChunks equal chunks.
func evenChunks(n int) []int {
	var ends []int
	for c := 1; c <= readChunks; c++ {
		ends = append(ends, n*c/readChunks)
	}
	return ends
}

// roundUp rounds n up to a multiple of m.
func roundUp(n, m int) int { return (n + m - 1) / m * m }

// parseAll parses the distinct queries once.
func parseAll(srcs []string) ([]*query.Query, error) {
	qs := make([]*query.Query, len(srcs))
	for i, s := range srcs {
		q, err := query.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", s, err)
		}
		qs[i] = q
	}
	return qs, nil
}
