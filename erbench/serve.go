package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ertree/internal/game"
	"ertree/internal/serve"
)

// The serve workload: two closed-loop HTTP clients ask an in-process
// serve.New server for /bestmove on Connect Four positions over loopback.
const (
	serveClients     = 2
	serveMinRequests = 600 // enough for a miss p90 with ten beyond it at a 25% miss share
	serveBudgetMS    = 60000
	seqHeader        = "X-Erbench-Seq"
)

// serveConfig is the server configuration erserve ships, on one search
// worker per session and two sessions at a time. The budget and the
// admission queue timeout are long enough that no request is cut or shed.
func serveConfig(backendName string) serve.Config {
	return serve.Config{
		Workers:       1,
		Backend:       backendName,
		SerialDepth:   3,
		TableBits:     tableBits,
		CacheSize:     256,
		MaxConcurrent: 2,
		QueueTimeout:  time.Minute,
		DefaultBudget: time.Minute,
		ObsSample:     250 * time.Millisecond,
		// The access log is formatted as erserve formats it, then dropped.
		Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)),
	}
}

// timedHandler times every request the server's handler serves and files
// the time under the request's sequence header.
type timedHandler struct {
	next http.Handler
	ns   []atomic.Int64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	if i, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil && i >= 0 && i < len(h.ns) {
		h.ns[i].Store(int64(time.Since(start)))
	}
}

// server is one running in-process server and its client.
type server struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	handler *timedHandler // nil unless the run is traced
}

// startServer starts a server on a loopback port. timed wraps its handler
// in a timedHandler sized for n requests.
func startServer(cfg serve.Config, timed bool, n int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: serve.New(cfg), served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	var h http.Handler = s.srv.Handler()
	if timed {
		s.handler = &timedHandler{next: h, ns: make([]atomic.Int64, n)}
		h = s.handler
	}
	s.hs = &http.Server{Handler: h}
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveClients,
		MaxIdleConnsPerHost: serveClients,
		DisableCompression:  true,
	}}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the server once every request in progress has been answered,
// so everything its handlers recorded is visible to the caller afterwards.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.srv.Close()
	if err != nil {
		return fmt.Errorf("stop server: %w", err)
	}
	return nil
}

// reply is the client's view of one request.
type reply struct {
	dur       time.Duration
	code      int
	value     game.Value
	move      int
	completed bool
	err       error
}

// bestmove sends one /bestmove request and waits for the whole answer.
func (s *server) bestmove(q request, seq int) reply {
	u := fmt.Sprintf("%s/bestmove?game=connect4&depth=%d&budget_ms=%d&moves=%s", s.base, serveDepth, serveBudgetMS, q.moves)
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set(seqHeader, strconv.Itoa(seq))
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{dur: time.Since(start), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{dur: time.Since(start), code: resp.StatusCode, err: err}
	if err != nil || r.code != http.StatusOK {
		return r
	}
	var out struct {
		Value     int  `json:"value"`
		Move      int  `json:"move"`
		Completed bool `json:"completed"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		r.err = fmt.Errorf("decode answer: %w", err)
		return r
	}
	r.value, r.move, r.completed = game.Value(out.Value), out.Move, out.Completed
	return r
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	AnswerCache struct {
		Hits, Misses, Coalesced int64
	} `json:"answer_cache"`
	Games map[string]struct {
		Backend, Driver, TableImpl string
		Nodes, Iterations          int64
		Researches, HeapOps        int64
		TTProbes, TTHits           int64
		TTStores, TTCutoffs        int64
		TableFill, TableLen        int64
	} `json:"games"`
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	body, err := s.get("/stats")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decode /stats: %w", err)
	}
	return st, nil
}

// bucket is one cumulative histogram bucket of the /metrics exposition.
type bucket struct {
	le    float64
	count float64
}

// admissionBuckets reads the connect4 engine's admission-wait histogram
// from /metrics.
func (s *server) admissionBuckets() ([]bucket, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseBuckets(string(body), "engine_admission_wait_seconds_bucket", `game="connect4"`)
}

// parseBuckets extracts the buckets of one labelled histogram series from
// a Prometheus text exposition, in increasing le order.
func parseBuckets(exposition, metric, label string) ([]bucket, error) {
	var out []bucket
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, metric+"{") || !strings.Contains(line, label) {
			continue
		}
		i := strings.Index(line, `le="`)
		if i < 0 {
			continue
		}
		rest := line[i+4:]
		le, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '"')], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", metric, err)
		}
		f := strings.Fields(line)
		count, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", metric, err)
		}
		out = append(out, bucket{le, count})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out, sc.Err()
}

// histQuantile returns the q-quantile of the observations between two
// readings of a cumulative histogram, interpolating linearly inside the
// bucket that holds it, as Prometheus does.
func histQuantile(before, after []bucket, q float64) float64 {
	if len(after) == 0 || len(before) != len(after) && len(before) != 0 {
		return 0
	}
	delta := make([]float64, len(after))
	for i := range after {
		delta[i] = after[i].count
		if len(before) > 0 {
			delta[i] -= before[i].count
		}
	}
	total := delta[len(delta)-1]
	if total <= 0 {
		return 0
	}
	want, lo, below := q*total, 0.0, 0.0
	for i, b := range after {
		if delta[i] >= want {
			if b.le > 1e300 { // the +Inf bucket
				return lo
			}
			return lo + (b.le-lo)*ratio(want-below, delta[i]-below)
		}
		lo, below = b.le, delta[i]
	}
	return lo
}

// serveSetup is one set-up: the inputs and a warmed-up server.
type serveSetup struct {
	inputs []request
	warm   []request
	srv    *server
}

func buildServe(seed uint64) (serveSetup, error) {
	warm, keys := serveWarmRequests(serveWarm)
	inputs := serveRequests(seed, servePool, keys)
	srv, err := warmServer(serveConfig(""), false, 0, warm)
	return serveSetup{inputs: inputs, warm: warm, srv: srv}, err
}

// warmServer starts a server and sends it the warm-up requests.
func warmServer(cfg serve.Config, timed bool, n int, warm []request) (*server, error) {
	srv, err := startServer(cfg, timed, n)
	if err != nil {
		return nil, err
	}
	for _, q := range warm {
		if r := srv.bestmove(q, -1); r.err != nil || r.code != http.StatusOK {
			srv.close()
			return nil, fmt.Errorf("warm-up request: status %d: %v", r.code, r.err)
		}
	}
	return srv, nil
}

// runRequests sends inputs closed-loop from serveClients clients (see
// closedLoop) and returns the replies, in input order, and the wall time.
func runRequests(srv *server, inputs []request, seconds float64) ([]reply, time.Duration, error) {
	res := make([]reply, len(inputs))
	n, wall, err := closedLoop(serveClients, seconds, serveMinRequests, len(inputs), func(i int) {
		res[i] = srv.bestmove(inputs[i], i)
	})
	return res[:n], wall, err
}

// checkReplies counts the replies as attempted and every error, non-200,
// cut-short answer or disagreement between answers to one position as a
// failure. It returns the first answer per position for the oracle.
func checkReplies(r *report, label string, inputs []request, replies []reply, first map[string]answer) {
	for i, rp := range replies {
		r.attempted++
		q := inputs[i]
		switch {
		case rp.err != nil:
			r.fail("%s request %d: %v", label, i, rp.err)
		case rp.code != http.StatusOK:
			r.fail("%s request %d: status %d", label, i, rp.code)
		case !rp.completed:
			r.fail("%s request %d: answer not completed", label, i)
		default:
			a, seen := first[q.moves]
			if !seen {
				first[q.moves] = answer{label: fmt.Sprintf("%s moves %s", label, q.moves), pos: q.pos, value: rp.value, move: rp.move}
			} else if a.value != rp.value || a.move != rp.move {
				r.fail("%s request %d: moves %s answered %d/%d, earlier %d/%d", label, i, q.moves, rp.value, rp.move, a.value, a.move)
			}
		}
	}
}

// checkClasses compares the client's repeat/fresh split of the replies with
// the server's answer-cache counters over the same requests: every fresh
// request must miss, every repeat must hit or join an identical search in
// flight.
func checkClasses(r *report, label string, inputs []request, n int, before, after serverStats) {
	var repeats, fresh int64
	for _, q := range inputs[:n] {
		if q.repeat {
			repeats++
		} else {
			fresh++
		}
	}
	hits := after.AnswerCache.Hits - before.AnswerCache.Hits
	coalesced := after.AnswerCache.Coalesced - before.AnswerCache.Coalesced
	misses := after.AnswerCache.Misses - before.AnswerCache.Misses
	if hits+coalesced != repeats || misses != fresh {
		r.fail("%s: client saw %d repeats and %d fresh requests, the answer cache %d hits, %d coalesced and %d misses",
			label, repeats, fresh, hits, coalesced, misses)
	}
}

func runServe(p params) (*report, error) {
	r := newReport()
	set, setupS, err := repeatSetup(func() (serveSetup, error) {
		return buildServe(p.seed)
	}, func(s serveSetup) { s.srv.close() })
	if err != nil {
		return nil, err
	}

	seconds := p.seconds
	if p.trace {
		seconds /= 2 // the other half is the traced phase
	}
	var replies []reply
	var wall time.Duration
	var after serverStats
	before, err := set.srv.stats()
	if err == nil {
		replies, wall, err = runRequests(set.srv, set.inputs, seconds)
	}
	if err == nil {
		after, err = set.srv.stats()
	}
	if cerr := set.srv.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	c4 := after.Games["connect4"]
	r.config["backend"] = c4.Backend
	r.config["driver"] = c4.Driver
	r.config["table_impl"] = c4.TableImpl
	r.config["workers"] = 1
	r.config["clients"] = serveClients
	r.config["depth"] = serveDepth

	first := make(map[string]answer)
	checkReplies(r, "serve", set.inputs, replies, first)
	checkClasses(r, "serve", set.inputs, len(replies), before, after)
	var all, hits, misses []float64
	for i, rp := range replies {
		d := ms(rp.dur)
		all = append(all, d)
		if set.inputs[i].repeat {
			hits = append(hits, d)
		} else {
			misses = append(misses, d)
		}
	}
	p50, _, err := quantiles("serve requests", all)
	if err != nil {
		return nil, err
	}
	missP50, missP90, err := quantiles("serve misses", misses)
	if err != nil {
		return nil, err
	}
	hitP50, ok := percentile(hits, 0.5)
	if !ok {
		return nil, fmt.Errorf("serve hits: %d samples, need %d for a p50", len(hits), minSamples(0.5))
	}
	perSec := float64(len(replies)) / wall.Seconds()
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	r.endToEnd["setup_s"] = setupS
	r.endToEnd["throughput_per_s"] = perSec
	r.endToEnd["latency_ms_p50"] = p50
	r.endToEnd["search_ms_p50"] = missP50
	r.endToEnd["search_ms_p90"] = missP90
	r.endToEnd["rss_peak_mb"] = rss
	r.add("setup_s", setupS, "s")
	r.add("requests_per_s", perSec, "1/s")
	r.add("hit_ms_p50", hitP50, "ms")
	r.add("miss_ms_p50", missP50, "ms")
	r.add("miss_ms_p90", missP90, "ms")
	r.add("requests", float64(len(replies)), "count")
	r.add("hits", float64(len(hits)), "count")
	r.add("misses", float64(len(misses)), "count")
	r.add("rss_peak_mb", rss, "MB")

	if p.trace {
		if err := traceServe(r, set, replies, perSec, first, c4.Backend); err != nil {
			return nil, err
		}
	}
	answers := make([]answer, 0, len(first))
	for _, a := range first {
		answers = append(answers, a)
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i].label < answers[j].label })
	checkAnswers(r, serveDepth, nil, answers)
	return r, nil
}

// traceServe is the traced run: the untraced request sequence is sent again
// to a fresh server whose backend is wrapped by the tap and whose handler
// is timed.
func traceServe(r *report, set serveSetup, untraced []reply, untracedPerSec float64, first map[string]answer, inner string) error {
	m := r.layers
	zeroLayers(m)
	inputs := set.inputs[:len(untraced)]
	t, err := installTap(inner)
	if err != nil {
		return err
	}
	srv, err := warmServer(serveConfig(tapName), true, len(inputs), set.warm)
	if err != nil {
		return err
	}
	open := true
	defer func() {
		if open {
			srv.close()
		}
	}()
	t.reset()
	before, err := srv.stats()
	if err != nil {
		return err
	}
	waitBefore, err := srv.admissionBuckets()
	if err != nil {
		return err
	}
	stop := startMutexProfile()
	replies, wall, err := runRequests(srv, inputs, 0)
	if err != nil {
		return err
	}
	lockWait, err := stop()
	if err != nil {
		return err
	}
	after, err := srv.stats()
	if err != nil {
		return err
	}
	waitAfter, err := srv.admissionBuckets()
	if err != nil {
		return err
	}
	// Closing waits for the handlers, so their times are all recorded.
	open = false
	if err := srv.close(); err != nil {
		return err
	}
	checkReplies(r, "serve traced", inputs, replies, first)
	checkClasses(r, "serve traced", inputs, len(replies), before, after)
	calls, searchMS, total, tally := t.snapshot()

	n := float64(len(replies))
	var missCount, shed float64
	var missHandler time.Duration
	var hitHandlerUS, httpUS []float64
	for i, rp := range replies {
		h := time.Duration(srv.handler.ns[i].Load())
		httpUS = append(httpUS, float64(rp.dur-h)/float64(time.Microsecond))
		if rp.code == http.StatusServiceUnavailable {
			shed++
		}
		if inputs[i].repeat {
			hitHandlerUS = append(hitHandlerUS, float64(h)/float64(time.Microsecond))
		} else {
			missCount++
			missHandler += h
		}
	}
	b, a := before.Games["connect4"], after.Games["connect4"]
	nodes := float64(a.Nodes - b.Nodes)
	iterations := float64(a.Iterations - b.Iterations)
	m["core.nodes_per_solve"] = ratio(nodes, missCount)
	m["core.heap_ops_per_node"] = ratio(float64(a.HeapOps-b.HeapOps), nodes)
	m["core.lock_wait_share"] = ratio(float64(lockWait), serveClients*float64(wall))
	tally.layers(m, nodes, missHandler, 1)

	probes := float64(a.TTProbes - b.TTProbes)
	m["tt.probes_per_node"] = ratio(probes, nodes)
	m["tt.hit_ratio"] = ratio(float64(a.TTHits-b.TTHits), probes)
	m["tt.cutoff_ratio"] = ratio(float64(a.TTCutoffs-b.TTCutoffs), probes)
	m["tt.stores_per_solve"] = ratio(float64(a.TTStores-b.TTStores), missCount)
	m["tt.fill_ratio"] = ratio(float64(a.TableFill), float64(a.TableLen))
	if err := replayTable(m, t.keys.recorded(), a.TableImpl, tableBits); err != nil {
		return err
	}

	m["engine.iterations_per_solve"] = ratio(iterations, missCount)
	m["engine.admission_wait_ms_p50"] = 1000 * histQuantile(waitBefore, waitAfter, 0.5)
	m["driver.calls_per_iteration"] = ratio(float64(calls), iterations)
	m["driver.researches_per_solve"] = ratio(float64(a.Researches-b.Researches), missCount)
	m["backend.search_ms_p50"] = p50Or0(searchMS)
	var positions []game.Position
	seen := make(map[string]bool)
	for _, q := range inputs {
		if !seen[q.moves] {
			seen[q.moves] = true
			positions = append(positions, q.pos)
		}
	}
	gameCost(m, positions)

	hits := float64(after.AnswerCache.Hits - before.AnswerCache.Hits)
	coalesced := float64(after.AnswerCache.Coalesced - before.AnswerCache.Coalesced)
	m["serve.cache_hit_ratio"] = hits / n
	m["serve.coalesced_ratio"] = coalesced / n
	m["serve.handler_hit_us_p50"] = p50Or0(hitHandlerUS)
	m["serve.http_us_p50"] = p50Or0(httpUS)
	m["serve.handler_overhead_ms_per_miss"] = ratio(ms(missHandler-total), missCount)
	m["serve.shed_ratio"] = shed / n
	m["trace.overhead_ratio"] = ratio(untracedPerSec, n/wall.Seconds())
	r.add("traced_requests_per_s", n/wall.Seconds(), "1/s")
	r.add("untraced_requests_per_s", untracedPerSec, "1/s")
	return nil
}
