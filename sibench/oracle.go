package main

import (
	"runtime"
	"sync"

	"repro/internal/join"
	"repro/internal/lingtree"
	"repro/internal/match"
	"repro/internal/query"
)

// The oracle answers every distinct query with the exact matcher
// (internal/match) over the generated trees. A label-presence
// prefilter keeps it cheap: only trees holding every label of the
// query are matched. It runs before set-up and is never timed.

// labelIndex maps each label to the ascending positions of the trees
// that contain it.
type labelIndex map[string][]int32

func newLabelIndex(trees []*lingtree.Tree) labelIndex {
	li := labelIndex{}
	for i, t := range trees {
		seen := map[string]bool{}
		for _, n := range t.Nodes {
			if !seen[n.Label] {
				seen[n.Label] = true
				li[n.Label] = append(li[n.Label], int32(i))
			}
		}
	}
	return li
}

// candidates returns the trees holding every label of q, ascending.
func (li labelIndex) candidates(q *query.Query) []int32 {
	var lists [][]int32
	seen := map[string]bool{}
	for _, n := range q.Nodes {
		if seen[n.Label] {
			continue
		}
		seen[n.Label] = true
		l := li[n.Label]
		if len(l) == 0 {
			return nil
		}
		lists = append(lists, l)
	}
	out := lists[0]
	for _, l := range lists[1:] {
		out = intersect(out, l)
	}
	return out
}

// intersect returns the common elements of two ascending lists.
func intersect(a, b []int32) []int32 {
	var out []int32
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// oracleAnswers computes the exact answer of every query over a
// static corpus whose global tids are the tree positions, keeping the
// count and the first keep matches.
func oracleAnswers(trees []*lingtree.Tree, srcs []string, keep int) ([]answer, error) {
	qs, err := parseAll(srcs)
	if err != nil {
		return nil, err
	}
	li := newLabelIndex(trees)
	out := make([]answer, len(qs))
	parallel(len(qs), func(i int) {
		m := match.New(qs[i])
		var a answer
		for _, tid := range li.candidates(qs[i]) {
			roots := m.Roots(trees[tid])
			a.count += len(roots)
			for _, r := range roots {
				if len(a.first) < keep {
					a.first = append(a.first, join.Match{TID: uint32(tid), Root: uint32(r)})
				}
			}
		}
		out[i] = a
	})
	return out, nil
}

// treeHits is one tree's match count for one query; tree is the
// tree's position in the list the oracle was given.
type treeHits struct {
	tree  int32
	count int32
}

// oracleTreeHits computes, per query, the match count of every tree
// that matches at all — the form the ingest workload needs, since the
// set of live trees changes under it.
func oracleTreeHits(trees []*lingtree.Tree, srcs []string) ([][]treeHits, error) {
	qs, err := parseAll(srcs)
	if err != nil {
		return nil, err
	}
	li := newLabelIndex(trees)
	out := make([][]treeHits, len(qs))
	parallel(len(qs), func(i int) {
		m := match.New(qs[i])
		for _, t := range li.candidates(qs[i]) {
			if n := len(m.Roots(trees[t])); n > 0 {
				out[i] = append(out[i], treeHits{tree: t, count: int32(n)})
			}
		}
	})
	return out, nil
}

// parallel runs fn(0..n-1) on GOMAXPROCS workers and waits for them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
