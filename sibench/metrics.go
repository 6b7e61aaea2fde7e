package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// e2e fills the end-to-end metrics of an untraced pass. The script is
// cut into chunks (equal fifths on the read workloads, compaction
// cycles on ingest); query_p50_ms and queries_per_s are the medians of
// their per-chunk values, so a short stall of the host moves one chunk
// and not the result. query_p99_ms needs every sample. queries_per_s
// divides by the time the client spent waiting on every operation, so
// on ingest the writes the single client waits for count against it.
func e2e(res *result, p *pass, in *inputs, setupS float64) {
	var p50s, qpss []float64
	from := 0
	for _, end := range in.chunks {
		var lat []int64
		var busy int64
		for i := from; i < end; i++ {
			busy += p.opNS[i]
			if in.ops[i].kind == opQuery {
				lat = append(lat, p.opNS[i])
			}
		}
		p50s = append(p50s, quantile(sortedMS(lat), 0.50))
		qpss = append(qpss, float64(len(lat))/(float64(busy)/1e9))
		from = end
	}
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", setupS, "s")
	set("query_p50_ms", median(p50s), "ms")
	set("query_p99_ms", quantile(sortedMS(p.queryNS), 0.99), "ms")
	set("queries_per_s", median(qpss), "1/s")
	set("correct_frac", 1-float64(p.failed)/float64(p.attempted), "frac")
	set("index_bytes_per_tree", float64(p.endBytes)/float64(p.liveTrees), "B")
	set("rss_mb", p.rssMB, "MB")
}

// perLayer fills the per-layer metrics from the traced pass, its
// spans and the replay; the runtime metrics and the tracing overhead
// come from the untraced pass of the same run.
func perLayer(res *result, plain, traced *pass, tr *tracer, rp *replayStats) {
	set := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	byRID := tr.link()
	n := float64(traced.queries)
	var nodeSelf, nodeBytes, frontBytes, routerSelf, took int64
	var subs int
	var rows uint64
	hasRouter := false
	for rid := range traced.rids {
		idx := byRID[rid]
		var router *span
		var children []span
		for _, i := range idx {
			s := tr.spans[i]
			switch s.Name {
			case "node":
				nodeSelf += s.End - s.Start - s.TookNS
				nodeBytes += s.Bytes
				took += s.TookNS
				rows += s.Rows
			case "router":
				router = &tr.spans[i]
			case "subrequest":
				subs++
				children = append(children, s)
			}
		}
		if router != nil {
			hasRouter = true
			routerSelf += selfNS(*router, children)
			frontBytes += router.Bytes
		}
	}
	if !hasRouter {
		// The node is the front: its bytes are the client's, and there
		// is no router layer.
		frontBytes, nodeBytes = nodeBytes, 0
	}
	set("server.self_ms", float64(nodeSelf)/n/1e6, "ms")
	set("server.resp_kb", float64(frontBytes)/n/1024, "kB")
	set("cluster.self_ms", float64(routerSelf)/n/1e6, "ms")
	set("cluster.node_resp_kb", float64(nodeBytes)/n/1024, "kB")
	set("cluster.subrequests_per_query", float64(subs)/n, "count")
	set("core.engine_ms", float64(took)/n/1e6, "ms")
	set("core.posting_fetches_per_query", float64(traced.exact.PostingFetches)/n, "count")
	set("core.join_rows_per_query", float64(rows)/n, "count")
	set("core.plan_cache_hit_frac", float64(traced.exact.PlanHits)/float64(traced.exact.PlanHits+traced.exact.PlanMisses), "frac")
	set("core.est_over_actual", float64(traced.exact.EstRows)/float64(traced.exact.ActualRows), "ratio")
	set("core.segments_mean", float64(traced.segSum)/n, "count")

	var r replayStats
	if rp != nil {
		r = *rp
	}
	rq := float64(r.queries)
	set("plan.parse_us", float64(r.parseNS)/rq/1e3, "us")
	set("plan.compile_us", float64(r.compileNS)/rq/1e3, "us")
	set("plan.pieces_per_query", float64(r.pieces)/rq, "count")
	set("fetch.get_us", float64(r.getNS)/rq/1e3, "us")
	set("fetch.kb_per_query", float64(r.fetchBytes)/rq/1024, "kB")
	set("decode.entries_per_query", float64(r.entries)/rq, "count")
	set("decode.ns_per_entry", float64(r.decodeNS)/float64(r.entries), "ns")
	set("join.ms_per_query", float64(r.joinNS)/rq/1e6, "ms")
	set("join.ns_per_row", float64(r.joinNS)/float64(r.rows), "ns")

	pq := float64(plain.queries)
	set("runtime.alloc_kb_per_query", float64(plain.allocB)/pq/1024, "kB")
	set("runtime.gc_per_1k_queries", float64(plain.numGC)/pq*1000, "count")

	set("ingest.append_took_ms", medianNS(traced.tookNS[opAppend])/1e6, "ms")
	set("ingest.delete_ms", medianNS(traced.tookNS[opDelete])/1e6, "ms")
	set("ingest.compact_s", medianNS(traced.tookNS[opCompact])/1e9, "s")
	set("ingest.compact_mb_written", medianNS(traced.compactB)/1e6, "MB")
	set("ingest.space_amp_max", traced.spaceAmp, "ratio")
	set("ingest.append_p50_ms", medianNS(plain.writeNS[opAppend])/1e6, "ms")
	var writeNS int64
	for _, k := range []opKind{opAppend, opDelete, opCompact} {
		for _, ns := range plain.writeNS[k] {
			writeNS += ns
		}
	}
	set("ingest.trees_per_s", float64(plain.appended)/(float64(writeNS)/1e9), "1/s")

	qps := func(p *pass) float64 { return float64(p.queries) / (float64(p.busyNS) / 1e9) }
	set("trace.overhead_frac", 1-qps(traced)/qps(plain), "frac")
}

// runMeta is the run's metadata line, printed before the result.
type runMeta struct {
	Workload       string         `json:"workload"`
	Seed           uint64         `json:"seed"`
	Seconds        int            `json:"seconds"`
	NumCPU         int            `json:"nproc"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	GoVersion      string         `json:"go_version"`
	Trees          int            `json:"trees"`
	Operations     int            `json:"operations"`
	Distinct       int            `json:"distinct_queries"`
	QuerySamples   int            `json:"query_samples"`
	P99Beyond      int            `json:"p99_samples_beyond"`
	WriteSamples   map[string]int `json:"write_samples,omitempty"`
	Attempted      int            `json:"attempted"`
	Failed         int            `json:"failed"`
	ProtocolErrors int            `json:"protocol_errors"`
	WrongAnswers   int            `json:"wrong_answers"`
	RestartFailed  int            `json:"restart_checks_failed"`
	FailedFrac     float64        `json:"failed_frac"`
	WrongQueries   []string       `json:"wrong_queries,omitempty"`
	Setups         []float64      `json:"setup_s"`
	IndexBytes     []int64        `json:"setup_index_bytes"`
	HostProbeMs    []float64      `json:"host_probe_ms"`
	PeakRSSMB      float64        `json:"peak_rss_mb"`
	Exact          exactCounters  `json:"exact"`
	Problems       []string       `json:"problems,omitempty"`
}

// fill copies a pass's counts into the metadata.
func (m *runMeta) fill(p *pass, in *inputs) {
	for qi := range p.wrongQs {
		m.WrongQueries = append(m.WrongQueries, in.queries[qi])
	}
	sort.Strings(m.WrongQueries)
	m.QuerySamples = len(p.queryNS)
	m.P99Beyond = len(p.queryNS) - int(math.Ceil(0.99*float64(len(p.queryNS))))
	m.WriteSamples = map[string]int{}
	for k, v := range p.writeNS {
		m.WriteSamples[k.String()] = len(v)
	}
	m.Attempted, m.Failed = p.attempted, p.failed
	m.ProtocolErrors, m.WrongAnswers, m.RestartFailed = p.protocol, p.wrong, p.restart
	m.FailedFrac = float64(p.failed) / float64(p.attempted)
	m.Exact = p.exact
}

// print writes the metadata line.
func (m *runMeta) print(w io.Writer) {
	b, err := json.Marshal(map[string]any{"meta": m})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sibench: metadata:", err)
		return
	}
	fmt.Fprintln(w, string(b))
}

// sortedMS converts nanosecond samples to sorted milliseconds.
func sortedMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median of xs (unsorted; xs is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianNS is the median of integer samples.
func medianNS(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}

// settledRSSMB forces a garbage collection, returns the freed memory
// to the operating system and reads the resident set: what the running
// servers (and the benchmark's own tables) hold, without the transient
// garbage whose size depends on when the collector last ran.
func settledRSSMB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	return procStatusMB("VmRSS:")
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 { return procStatusMB("VmHWM:") }

// procStatusMB reads one kB field of /proc/self/status in MB.
func procStatusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// hostProbe times a fixed CPU loop in the benchmark's own code, in ms.
// No change to the program moves it, so a shift between run sets is
// the host's speed, not the program's.
func hostProbe() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// probeSink keeps the probe loop from being optimized away.
var probeSink uint64
