package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	eagr "repro"
	"repro/internal/graph"
)

// Shared pieces of the workloads. Everything here calls the program only
// through its public API (package eagr).

const (
	batchSize      = 256  // events per acknowledged batch, on every path
	readGroup      = 16   // reads timed together; a read sample is the group's time per read
	setupBefore    = 2    // timed set-ups before the timed loop
	recoverRepeats = 3    // recoveries per run; recover_s is their median
	numSlices      = 8    // equal parts of a timed loop whose values go in the record
	hotSubscribed  = 256  // egos the subscriber watches
	subBuffer      = 4096 // notify_open's subscription buffer (the issue's)
	oracleEgos     = 200  // sampled egos per query the oracle recomputes
)

// setupsDuring is how many more set-ups each workload times at even
// intervals of its loop: three or four seconds' worth per run, so the
// cheaper a workload's set-up the more of them; setup_s is the fastest of
// them all.
var setupsDuring = map[string]int{
	"feed_mixed":     12, // 0.3 s each
	"notify_open":    24, // 0.1-0.17 s
	"durable_ingest": 30, // 0.09 s
	"churn_topo":     12, // 0.12 s, and every one disturbs a loop of 10 ms batches
	"sharded_http":   6,  // 0.65 s: three processes started and stopped
}

// env is what main hands a workload.
type env struct {
	name    string
	seed    int64
	seconds float64
	traced  bool
	smoke   bool
	root    string // checkout root
	bin     string // directory holding eagr-serve and eagr-router
	tmp     string // this run's scratch directory, removed on exit
	tr      *tracer
	res     *runResult

	setups    segments // every timed set-up of the run, seconds
	setupWall segments // the same set-ups on the wall clock
	moreSetup func()   // one more timed set-up, discarded at once; nil when none is wanted
}

// dur is a share of the measured seconds.
func (e *env) dur(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%s] "+format+"\n", append([]any{e.name}, args...)...)
}

func (e *env) mkdir(name string) (string, error) {
	dir := filepath.Join(e.tmp, name)
	return dir, os.MkdirAll(dir, 0o755)
}

// liveHeapMB is HeapAlloc after two forced collections (what a discarded
// session left in a sync.Pool survives the first). The memory is not handed
// back to the operating system: a set-up that has to fault every page in
// again is timed by the hypervisor, not by the program.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// libSUT is one set-up library system under test.
type libSUT struct {
	g    *graph.Graph
	sess *eagr.Session
	qs   []*eagr.Query
	dir  string // durability directory, "" when not durable
}

func (s *libSUT) close() {
	if s == nil || s.sess == nil {
		return
	}
	if s.sess.Durable() {
		_ = s.sess.SimulateCrash() // releases the WAL files; the directory is scratch
	}
}

// openLib generates the graph, opens a session (durable when dir is set)
// and registers the queries: one whole set-up.
func openLib(graphOf func() *graph.Graph, specs []eagr.QuerySpec, opts eagr.Options, dir string) (*libSUT, error) {
	g := graphOf()
	var (
		sess *eagr.Session
		err  error
	)
	if dir != "" {
		sess, _, err = eagr.OpenDurable(g, eagr.DurabilityOptions{Dir: dir, Fsync: eagr.FsyncInterval}, opts)
	} else {
		sess, err = eagr.Open(g, opts)
	}
	if err != nil {
		return nil, err
	}
	s := &libSUT{g: g, sess: sess, dir: dir}
	for _, spec := range specs {
		q, err := sess.Register(spec)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("register %s: %w", spec.Aggregate, err)
		}
		s.qs = append(s.qs, q)
	}
	return s, nil
}

// processClock is the processor time (user + system, every thread) this
// process has used; wallClock is the time of day. Both only make sense as
// differences.
func processClock() time.Duration { return cpuOfSelf() }
func wallClock() time.Duration    { return time.Duration(time.Now().UnixNano()) }

// setupRepeated is a workload's set-up phase. One set-up is build: generate
// the graph, open the session, register the queries (for the fleet: start
// the processes and register through the router). It is done once untimed
// (the process faults its heap in), setupBefore times before the loop and
// setupsDuring more times at even intervals of it, every one of those
// discarded at once; setup_s is the fastest of them all. The system the
// loop runs on is then built once more, untimed, after the heap baseline
// (driver-owned buffers only) is read.
//
// A build allocates a hundred megabytes in a fifth of a second, and how
// fast the host's memory serves that differs by 2-3x from one second to
// the next and, in its typical value, from one minute to the next: five
// set-ups in a row moved their median by 50-100 % between runs, the fastest
// of many spread over the run by 10-25 %. The library workloads time a
// build on the processor clock, which leaves out what the sandbox's disk
// adds to a durable session's first checkpoint (10-30 ms of 90 on a good
// minute, several times that on a bad one) and any time the process was
// not running; the fleet's set-up happens in its child processes and is
// timed on the wall clock. (The loop does not mind the interleaved
// set-ups: what they do to the cache is filtered out with the rest of the
// host's noise, see loopStats.)
func setupRepeated[T any](e *env, clock func() time.Duration, build func(round int) (T, error), discard func(T)) (sut T, heapBase float64, err error) {
	start := time.Now()
	round := 0
	var none T
	throwaway := func(timed bool) error {
		t0, w0 := clock(), time.Now()
		s, err := build(round)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", round, err)
		}
		if timed {
			e.setups = append(e.setups, (clock() - t0).Seconds())
			e.setupWall = append(e.setupWall, time.Since(w0).Seconds())
		}
		discard(s)
		round++
		return nil
	}
	if !e.traced && !e.smoke { // a traced run does not report setup_s
		for k := 0; k <= setupBefore; k++ {
			if err := throwaway(k > 0); err != nil {
				return none, 0, err
			}
		}
		e.moreSetup = func() {
			if err := throwaway(true); err != nil {
				e.res.failf("%v", err)
			}
		}
	}
	heapBase = liveHeapMB()
	t0 := time.Now()
	if sut, err = build(-1); err != nil {
		return none, 0, fmt.Errorf("set-up: %w", err)
	}
	if len(e.setups) == 0 {
		e.setups = append(e.setups, time.Since(t0).Seconds()) // the smoke pass: every metric, no measurement
	}
	e.res.phase("setup", start)
	return sut, heapBase, nil
}

// bookSetups reports setup_s once every set-up of the run has been timed.
func (e *env) bookSetups() {
	if len(e.setups) == 0 {
		return
	}
	e.res.setSliced("setup_s", slices.Min(e.setups), e.setups, len(e.setups))
	if len(e.setupWall) > 0 {
		e.res.Info["setup_wall_s_min"] = slices.Min(e.setupWall)
	}
}

// sizeHeap serves n iterations, untraced and unrecorded, and then books
// live_heap_mb. The heap is sized after a fixed number of operations and
// not at the end of the timed loop: a session's heap grows with the
// operations it has served (about 5 MB per million on feed_mixed's larger
// graph; dead overlay slots after every repair on churn_topo), so at the
// end of the loop it would measure how fast the host happened to be.
func sizeHeap(e *env, n, positions, groups int, heapBase float64, iter func(*loopStats)) {
	tr := e.tr
	e.tr = nil
	for st := newLoopStats(0, positions, groups); n > 0; n-- {
		iter(st)
	}
	e.tr = tr
	e.res.set("live_heap_mb", liveHeapMB()-heapBase)
}

// loopStats collects the samples of one closed loop. The loop replays a
// short cycle of pre-generated iterations (64 distinct ones on the content
// workloads, the 16 batches of churn_topo's cycle) again and again. An
// iteration hands a batch over and waits for its acknowledgement (acked),
// does its reads in timed groups (reads), possibly other timed work
// (other), and ends; its time is the sum of what it timed, so the driver's
// bookkeeping between the timed calls (stamping events, the oracle's
// history) is not charged to the program.
//
// Every position of the cycle — the same batch, the same read targets — is
// therefore timed some hundred times in a run, and what is kept of those
// repeats is their quiet time: the quietQ quantile, the time the position
// takes when the host leaves the core and its cache alone. The host mostly
// does not: on the shared sandbox the mean of the same repeats moves by
// 30-60 % from one run to the next and their median by 10-20 %, while the
// low quantile repeats within a few percent (README, "Calibration notes").
// The reported numbers are then statistics over the cycle's positions:
// throughput is the cycle's operations over the sum of its calls' quiet
// times, and the p50 latencies are the median position's (median read
// group's) quiet time, so the percentile is over the workload's inputs and
// the quantile over repeats only filters the host out.
type loopStats struct {
	opsPerIter int64
	on         bool      // false during warm-up: nothing is kept
	iter, ack  [][]int64 // [cycle position] nanoseconds of every repeat, in time order (iter: the whole iteration)
	rest       [][]int64 // [cycle position] nanoseconds the repeat timed that were neither ack nor read
	read       [][]int64 // [position × groups + group] nanoseconds of every repeat of one timed read group
	groups     int       // timed read groups per iteration
	readN      int       // reads per timed group
	iters      int64     // iterations kept
	pos, group int       // of the iteration in progress
	cur        int64     // timed nanoseconds of the iteration in progress
	curRest    int64     // of those, neither ack nor read
}

// quietQ is the quantile over a position's repeats that is kept. A 25 s run
// repeats each position 170 (notify_open) to 650 times (durable_ingest), so
// 8 to 32 repeats lie below the 5th percentile: low enough that a minute in
// which the host slows most repeats down still leaves it standing (between
// ten runs of one commit the 10th percentile spread 7-11 % on
// durable_ingest, the 5th 5-9 %, the 2nd 4-6 %), not so low that it is the
// one lucky repeat.
const quietQ = 0.05

func newLoopStats(opsPerIter int64, positions, groups int) *loopStats {
	return &loopStats{
		opsPerIter: opsPerIter, groups: groups,
		iter: make([][]int64, positions), ack: make([][]int64, positions), rest: make([][]int64, positions),
		read: make([][]int64, positions*groups),
	}
}

// begin starts an iteration at the given position of the cycle.
func (st *loopStats) begin(pos int) { st.pos, st.group, st.cur, st.curRest = pos, 0, 0, 0 }

func (st *loopStats) acked(d time.Duration) {
	st.cur += int64(d)
	if st.on {
		st.ack[st.pos] = append(st.ack[st.pos], int64(d))
	}
}

// reads books the iteration's next timed group of n reads.
func (st *loopStats) reads(d time.Duration, n int) {
	st.cur += int64(d)
	st.readN = n
	if st.on {
		k := st.pos*st.groups + st.group
		st.read[k] = append(st.read[k], int64(d))
	}
	st.group++
}

// other books timed work of the iteration that is neither ack nor read.
func (st *loopStats) other(d time.Duration) {
	st.cur += int64(d)
	st.curRest += int64(d)
}

func (st *loopStats) end() {
	if st.on {
		st.iter[st.pos] = append(st.iter[st.pos], st.cur)
		st.rest[st.pos] = append(st.rest[st.pos], st.curRest)
		st.iters++
	}
}

// ops is how many operations the kept iterations completed.
func (st *loopStats) ops() int64 { return st.iters * st.opsPerIter }

// quiet returns, for every position that has repeats in the part [lo,hi)
// of its samples (as shares of their count), the quietQ quantile of those
// repeats.
func quiet(byPos [][]int64, lo, hi float64) []float64 { return quantileOf(byPos, lo, hi, quietQ) }

func quantileOf(byPos [][]int64, lo, hi, q float64) []float64 {
	out := make([]float64, 0, len(byPos))
	for _, s := range byPos {
		part := s[int(lo*float64(len(s))):int(hi*float64(len(s)))]
		if len(part) == 0 {
			continue
		}
		f := make([]float64, len(part))
		for i, v := range part {
			f[i] = float64(v)
		}
		sort.Float64s(f)
		out = append(out, percentile(f, 100*q))
	}
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// median0 is median, but 0 for nothing (a loop that never ran).
func median0(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// parts is stat over numSlices consecutive parts of the loop: how the value
// moved during the run.
func parts(byPos [][]int64, stat func([]float64) float64, conv func(ns float64) float64) segments {
	out := make(segments, 0, numSlices)
	for k := 0; k < numSlices; k++ {
		if v := stat(quiet(byPos, float64(k)/numSlices, float64(k+1)/numSlices)); v > 0 {
			out = append(out, conv(v))
		}
	}
	return out
}

// iterQuiet is, per position, the quiet time of an iteration there: the sum
// of the quiet times of the calls it times (the acknowledged batch, each
// read group, the rest), over the part [lo,hi) of the repeats. The calls are
// summed and not the iteration taken whole because a repeat in which every
// one of seventeen calls found the host quiet is much rarer than a quiet
// repeat of each.
func (st *loopStats) iterQuiet(lo, hi, q float64) []float64 {
	out := make([]float64, 0, len(st.iter))
	one := func(s []int64) float64 { return mean(quantileOf([][]int64{s}, lo, hi, q)) }
	for pos := range st.iter {
		t := one(st.ack[pos]) + one(st.rest[pos])
		for g := 0; g < st.groups; g++ {
			t += one(st.read[pos*st.groups+g])
		}
		if t > 0 {
			out = append(out, t)
		}
	}
	return out
}

// iterNS is the mean quiet time of the cycle's iterations.
func (st *loopStats) iterNS() float64 { return mean(st.iterQuiet(0, 1, quietQ)) }

// ackNS is the median position's quiet acknowledgement time.
func (st *loopStats) ackNS() float64 { return median0(quiet(st.ack, 0, 1)) }

// throughput is the cycle's operations per second of its quiet time.
func (st *loopStats) throughput() float64 {
	t := st.iterNS()
	if t == 0 {
		return 0
	}
	return float64(st.opsPerIter) * 1e9 / t
}

func count(byPos [][]int64) (n int) {
	for _, s := range byPos {
		n += len(s)
	}
	return n
}

// pooled is every repeat of every position, for the tails.
func pooled(byPos [][]int64) *latencies {
	l := newLatencies(count(byPos))
	for _, s := range byPos {
		l.ns = append(l.ns, s...)
	}
	return l
}

// report books the loop's three end-to-end metrics and their tails.
func (st *loopStats) report(res *runResult) {
	perSec := func(ns float64) float64 { return float64(st.opsPerIter) * 1e9 / ns }
	us := func(ns float64) float64 { return ns / 1e3 }
	perRead := func(ns float64) float64 { return ns / 1e3 / float64(max(st.readN, 1)) }
	tputParts := make(segments, 0, numSlices)
	for k := 0; k < numSlices; k++ {
		if ns := mean(st.iterQuiet(float64(k)/numSlices, float64(k+1)/numSlices, quietQ)); ns > 0 {
			tputParts = append(tputParts, perSec(ns))
		}
	}
	res.setSliced("throughput_ops_s", st.throughput(), tputParts, int(st.iters))
	res.setSliced("ingest_ack_p50_us", us(st.ackNS()), parts(st.ack, median0, us), count(st.ack))
	res.setSliced("read_p50_us", perRead(median0(quiet(st.read, 0, 1))), parts(st.read, median0, perRead), count(st.read))
	// The tails are over every repeat as it was, host and all.
	res.set("ingest_ack_p99_us", pooled(st.ack).us(99))
	res.Samples["ingest_ack_p99_us"] = count(st.ack)
	res.set("read_p99_us", st.readP99us())
	res.Samples["read_p99_us"] = count(st.read)
	// What other estimators would have said of the same samples; the
	// calibration notes in the README are made from these.
	res.Info["iter_us_mean"] = mean(pooled(st.iter).floats()) / 1e3
	for _, q := range []float64{0.02, 0.05, 0.10, 0.25, 0.50} {
		res.Info[fmt.Sprintf("iter_us_q%02.0f", 100*q)] = mean(st.iterQuiet(0, 1, q)) / 1e3
		res.Info[fmt.Sprintf("whole_iter_us_q%02.0f", 100*q)] = mean(quantileOf(st.iter, 0, 1, q)) / 1e3
		res.Info[fmt.Sprintf("ack_us_q%02.0f", 100*q)] = median0(quantileOf(st.ack, 0, 1, q)) / 1e3
		res.Info[fmt.Sprintf("read_ns_q%02.0f", 100*q)] = median0(quantileOf(st.read, 0, 1, q)) / float64(max(st.readN, 1))
	}
}

// readP99us is the 99th percentile of the timed groups' time per read.
func (st *loopStats) readP99us() float64 {
	return pooled(st.read).us(99) / float64(max(st.readN, 1))
}

// closedLoop runs iter back to back for warm (nothing kept) and then for
// total, calling between (when not nil) n times at even intervals of total.
func closedLoop(st *loopStats, warm, total time.Duration, n int, between func(), iter func()) {
	for end := time.Now().Add(warm); time.Now().Before(end); {
		iter()
	}
	st.on = true
	begin := time.Now()
	var paused time.Duration // spent in between, not part of total
	for k := 1; ; {
		elapsed := time.Since(begin) - paused
		if elapsed >= total {
			break
		}
		if between != nil && k <= n && elapsed >= total*time.Duration(k)/time.Duration(n+1) {
			t0 := time.Now()
			between()
			paused += time.Since(t0)
			k++
			continue
		}
		iter()
	}
	st.on = false
}

// mainLoop is a workload's timed loop. An untraced run gives it all of the
// measured seconds. A traced run runs it twice, untraced then traced, for
// a third of the seconds each: the untraced pass gives the process's cost
// per operation, the drop from it to the traced pass is what tracing
// costs, and the latencies reported are the untraced pass's.
func mainLoop(e *env, opsPerIter int64, positions, groups int, kids []*child, iter func(st *loopStats)) *loopStats {
	start := time.Now()
	defer e.res.phase("main", start)
	st := newLoopStats(opsPerIter, positions, groups)
	if !e.traced {
		closedLoop(st, e.dur(0.05), e.dur(1), setupsDuring[e.name], e.moreSetup, func() { iter(st) })
		st.report(e.res)
		return st
	}
	tr := e.tr
	e.tr = nil
	meter := startMeter(kids...)
	closedLoop(st, e.dur(0.03), e.dur(0.33), 0, nil, func() { iter(st) })
	meter.book(e.res, st.ops())
	e.tr = tr
	traced := newLoopStats(opsPerIter, positions, groups)
	closedLoop(traced, e.dur(0.01), e.dur(0.33), 0, nil, func() { iter(traced) })
	if plain := st.throughput(); plain > 0 {
		e.res.set("trace.overhead_frac", 1-traced.throughput()/plain)
	}
	st.report(e.res)
	return st
}

// iterInput is one pre-generated iteration of a content loop.
type iterInput struct {
	writes []eagr.Event   // one batch; timestamps are stamped when it is sent
	reads  []graph.NodeID // read targets, a multiple of readGroup
}

// stamp gives the batch the next sequence numbers as timestamps and records
// it in the oracle's history.
func stamp(batch []eagr.Event, seq *int64, h *history) {
	for i := range batch {
		*seq++
		batch[i].TS = *seq
		if h != nil {
			h.record(batch[i].Node, batch[i].Value, *seq)
		}
	}
}

// ackBatch hands one batch to the Ingestor and waits until it is applied:
// SendEvents + Flush, the loop's acknowledged batch.
func ackBatch(e *env, st *loopStats, ing *eagr.Ingestor, batch []eagr.Event, op int64) {
	sp := e.tr.begin("ingest.SendEvents+Flush", -1, op)
	t0 := time.Now()
	n, err := ing.SendEvents(batch)
	if err == nil {
		err = ing.Flush()
	}
	st.acked(time.Since(t0))
	e.tr.end(sp)
	e.res.ops(int64(len(batch)), int64(len(batch)-n))
	if err != nil {
		e.res.failf("ack batch: %v", err)
	}
}

// readGroups reads the egos through ReadInto, round-robin over the queries,
// each group of readGroup reads timed as one sample.
func readGroups(e *env, st *loopStats, qs []*eagr.Query, egos []graph.NodeID, op int64) {
	var res eagr.Result
	var failures int64
	for g := 0; g+readGroup <= len(egos); g += readGroup {
		var sp int32 = -1
		if g == 0 {
			sp = e.tr.begin("query.ReadInto x16", -1, op)
		}
		t0 := time.Now()
		for k, ego := range egos[g : g+readGroup] {
			if err := qs[k%len(qs)].ReadInto(ego, &res); err != nil {
				failures++
			}
		}
		st.reads(time.Since(t0), readGroup)
		e.tr.end(sp)
	}
	e.res.ops(int64(len(egos)), failures)
}

// delivery measures event due time → the subscriber receives an update
// caused by it, at two fixed open-loop rates.
type delivery struct {
	lo, hi         *latencies // delivery latency samples per step
	lateLo, lateHi *latencies // generator lateness per step
	sent           int64
	dropped        int64
	// mean Ingestor state sampled by the generator during the hi step
	queueDepth, buffered, wmLag float64
	utilLo, utilHi              float64 // share of wall time the generator spent inside SendEvent
}

// subscription is one Subscribe result.
type subscription struct {
	ch     <-chan eagr.Update
	cancel func()
}

// subscribeAll subscribes to every query at the given egos.
func subscribeAll(qs []*eagr.Query, buffer int, egos []graph.NodeID) ([]subscription, error) {
	subs := make([]subscription, 0, len(qs))
	for _, q := range qs {
		ch, cancel, err := q.Subscribe(buffer, egos...)
		if err != nil {
			for _, s := range subs {
				s.cancel()
			}
			return nil, err
		}
		subs = append(subs, subscription{ch, cancel})
	}
	return subs, nil
}

// drain takes every update that is waiting on the subscriptions, without
// blocking, and returns how many there were.
func drain(subs []subscription) int64 {
	var n int64
	for _, s := range subs {
		for more := true; more; {
			select {
			case _, ok := <-s.ch:
				if ok {
					n++
				}
				more = ok
			default:
				more = false
			}
		}
	}
	return n
}

// consume starts the one consumer goroutine: it hands every update of the
// (one or two) subscriptions to handle until their channels are closed, then
// closes the returned channel. handle may be nil to just drain.
func consume(subs []subscription, handle func(eagr.Update)) <-chan struct{} {
	if len(subs) < 1 || len(subs) > 2 {
		panic(fmt.Sprintf("bench: %d subscriptions, the consumer takes 1 or 2", len(subs)))
	}
	a := subs[0].ch
	var b <-chan eagr.Update
	if len(subs) == 2 {
		b = subs[1].ch
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a != nil || b != nil {
			var u eagr.Update
			var ok bool
			select {
			case u, ok = <-a:
				if !ok {
					a = nil
				}
			case u, ok = <-b:
				if !ok {
					b = nil
				}
			}
			if ok && handle != nil {
				handle(u)
			}
		}
	}()
	return done
}

// cancelAll cancels the subscriptions (closing their channels) and waits
// for the consumer to finish with what was buffered.
func cancelAll(subs []subscription, consumed <-chan struct{}) {
	for _, s := range subs {
		s.cancel()
	}
	<-consumed
}

// deliveryPhase drives ing open loop at rateLo then rateHi with one
// consumer goroutine draining the (at most two) subscriptions. Events get
// ts = *seq (advanced here), so an Update's TS indexes the due-time table.
// It cancels the subscriptions before returning; dropped is read just
// before that.
func deliveryPhase(e *env, ing *eagr.Ingestor, subs []subscription, dropped func() int64,
	next func() (graph.NodeID, int64), record func(graph.NodeID, int64, int64), seq *int64,
	rateLo, rateHi float64, durLo, durHi time.Duration) (*delivery, error) {

	nLo := int64(rateLo * durLo.Seconds())
	nHi := int64(rateHi * durHi.Seconds())
	base := *seq + 1
	due := make([]int64, nLo+nHi) // due time of event base+i, ns since t0
	t0 := time.Now()
	d := &delivery{
		lo: newLatencies(int(nLo) * 4), hi: newLatencies(int(nHi) * 4),
	}
	consumed := consume(subs, func(u eagr.Update) {
		i := u.TS - base
		if i < 0 || i >= int64(len(due)) {
			return
		}
		lat := int64(time.Since(t0)) - due[i]
		if i < nLo {
			d.lo.add(lat)
		} else {
			d.hi.add(lat)
		}
	})
	finish := func() {
		d.dropped = dropped()
		cancelAll(subs, consumed)
	}

	step := func(rate float64, n, offset int64, sample bool) (*latencies, float64, error) {
		p := newPacer(rate, int(n))
		p.begin()
		var inSend time.Duration
		var samples int
		begin := time.Now()
		for i := int64(0); i < n; i++ {
			dueAt := p.wait(i)
			*seq++
			ts := *seq
			due[offset+i] = int64(dueAt.Sub(t0))
			node, val := next()
			s0 := time.Now()
			err := ing.SendEvent(eagr.NewWrite(node, val, ts))
			inSend += time.Since(s0)
			d.sent++
			if err != nil {
				e.res.failf("delivery send: %v", err)
				continue
			}
			record(node, val, ts)
			if sample && i%64 == 0 {
				st := ing.Stats()
				d.queueDepth += float64(st.QueueDepth)
				d.buffered += float64(st.Buffered)
				if st.WatermarkValid {
					d.wmLag += float64(ts - st.Watermark)
				}
				samples++
			}
		}
		util := inSend.Seconds() / time.Since(begin).Seconds()
		if samples > 0 {
			d.queueDepth /= float64(samples)
			d.buffered /= float64(samples)
			d.wmLag /= float64(samples)
		}
		return p.late, util, ing.Flush()
	}
	var err error
	if d.lateLo, d.utilLo, err = step(rateLo, nLo, 0, false); err == nil {
		d.lateHi, d.utilHi, err = step(rateHi, nHi, nLo, true)
	}
	finish()
	if err != nil {
		return nil, fmt.Errorf("delivery step: %w", err)
	}
	return d, nil
}

// book turns a finished delivery phase into metrics. Dropped updates are
// failed operations.
func (d *delivery) book(e *env) {
	e.res.ops(d.sent, d.dropped)
	if d.dropped > 0 {
		e.res.Failures = append(e.res.Failures, fmt.Sprintf("%d subscriber updates dropped", d.dropped))
	}
	if d.lo.count() == 0 || d.hi.count() == 0 {
		e.res.failf("delivery: no updates received (lo %d, hi %d)", d.lo.count(), d.hi.count())
		return
	}
	e.res.set("delivery_idle_p50_us", d.lo.us(50))
	e.res.set("delivery_p50_us", d.hi.us(50))
	e.res.Samples["delivery_idle_p50_us"] = d.lo.count()
	e.res.Samples["delivery_p50_us"] = d.hi.count()
	e.res.set("ingest.delivery_p99_us", d.hi.us(99))
	e.res.Samples["ingest.delivery_p99_us"] = d.hi.count()
	e.res.set("ingest.dropped_updates", float64(d.dropped))
	e.res.set("ingest.queue_depth_mean", d.queueDepth)
	e.res.set("ingest.buffered_mean", d.buffered)
	e.res.set("ingest.watermark_lag", d.wmLag)
	late := newLatencies(0)
	late.ns = append(append(late.ns, d.lateLo.ns...), d.lateHi.ns...)
	e.res.set("workload.gen_late_p99_us", late.us(99))
	e.res.Info["delivery_util_lo"] = d.utilLo
	e.res.Info["delivery_util_hi"] = d.utilHi
	e.res.Info["gen_late_lo_p99_us"] = d.lateLo.us(99)
	e.res.Info["gen_late_hi_p99_us"] = d.lateHi.us(99)
}

// recoveryTimes crash-recovers the durable directory dir `repeats`
// times (recovery itself writes no checkpoint, so every repeat replays the
// same WAL tail) and returns the recovered session of the last repeat with
// every repeat's OpenDurable time.
func recoveryTimes(dir string, opts eagr.Options, repeats int) (*eagr.Session, *eagr.Recovery, segments, error) {
	times := make(segments, 0, repeats)
	for i := 0; ; i++ {
		t0 := time.Now()
		sess, rec, err := eagr.OpenDurable(nil, eagr.DurabilityOptions{Dir: dir, Fsync: eagr.FsyncInterval}, opts)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("recover %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == repeats-1 {
			return sess, rec, times, nil
		}
		if err := sess.SimulateCrash(); err != nil {
			return nil, nil, nil, fmt.Errorf("crash %d: %w", i, err)
		}
	}
}

// readAll reads every query at every ego through the library.
func readAll(qs []*eagr.Query, egos []graph.NodeID) ([][]eagr.Result, error) {
	out := make([][]eagr.Result, len(qs))
	for qi, q := range qs {
		out[qi] = make([]eagr.Result, len(egos))
		for i, ego := range egos {
			r, err := q.Read(ego)
			if err != nil {
				return nil, fmt.Errorf("query %d ego %d: %w", q.ID(), ego, err)
			}
			out[qi][i] = r
		}
	}
	return out, nil
}

// compareRecovered checks post-recovery reads against pre-crash reads.
func compareRecovered(e *env, sess *eagr.Session, before [][]eagr.Result, egos []graph.NodeID) error {
	qs := sess.Queries()
	if len(qs) != len(before) {
		e.res.failf("recovered %d queries, had %d", len(qs), len(before))
		return nil
	}
	after, err := readAll(qs, egos)
	if err != nil {
		return err
	}
	var c checker
	for qi := range before {
		for i := range before[qi] {
			c.compare("post-recovery "+qs[qi].Spec().Aggregate, egos[i], after[qi][i], before[qi][i])
		}
	}
	c.book(e.res, "recovery")
	return nil
}
