package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/authoritative"
	"repro/internal/cache"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/recursive"
	"repro/internal/udprun"
	"repro/internal/zone"
)

// The resolver-udp workload: an authoritative.Server and a
// recursive.Resolver, each on its own udprun loop and 127.0.0.1 socket,
// fed by an open-loop generator on one UDP socket with two goroutines (a
// sender and a receiver).

const (
	hotNames  = 1000 // warmed at set-up; queries for them are cache hits
	missShare = 0.10 // share of never-seen names: one upstream query each

	// cacheEntries bounds the resolver's cache. The never-seen names fill
	// it within the first seconds and then evict one another (the hot
	// names, asked about every thousand queries, stay), so the heap and
	// the GC work per query stop growing with the run's length.
	cacheEntries = 1 << 15

	reqTimeout = 300 * time.Millisecond // a request unanswered this long is lost

	// Rungs are cut into windows of windowLen: a rung's p50, p99 and
	// lateness are medians over its windows, so one stall (a GC pause,
	// a busy neighbour) moves one window, not the rung.
	windowLen = 250 * time.Millisecond

	// A rung is scored only when the generator kept up: its p99 lateness
	// (send time past due time) must stay within lateLimit.
	lateLimit = 2 * time.Millisecond
	// max_rate_qps is the highest rate whose p99 latency stays within
	// p99Limit and whose unanswered share stays within lossLimit, as
	// fitted over the valid rungs of fitFrom qps and up (scoreLadder).
	p99Limit  = 20 * time.Millisecond
	lossLimit = 0.02
	fitFrom   = 80000

	// peak_rss_mb is this percentile of the resident set, sampled every
	// rssEvery from the first drain pass to the end of the schedule.
	// VmHWM, the one highest sample, is set by a single GC cycle's
	// overshoot and moved by up to 25% from run to run; the 95th
	// percentile by 3-10%. The sampler wakes the process, so it samples
	// sparsely.
	rssPercentile = 95
	rssEvery      = 20 * time.Millisecond

	setupsAtStart = 5     // throwaway set-ups before the first drain pass
	drainQueries  = 50000 // queries in one closed-loop drain pass
	drainsBetween = 4     // drain passes after each nominal segment
	drainWindow   = 32    // outstanding queries during a drain pass
	// windowWait is how long a closed loop waits for a response before
	// the place of a request presumed lost goes to the next one: far
	// above the loop's latency (about 32 service times), far below
	// reqTimeout, so one lost datagram does not stall a pass.
	windowWait  = 20 * time.Millisecond
	drainPasses = 5 // untraced drain passes of a traced run
)

// ladder is the fixed rate schedule in queries per second, with the
// share of the measured time each step gets. The nominal rate runs in
// five segments spread through the schedule, and drainsBetween drain
// passes and as many throwaway set-ups follow each of them, so each
// metric's samples span the whole run: on a shared host a busy spell
// then moves a part of the samples, not all of them. They follow the quiet nominal
// segments, not the loaded rungs, so the resolver's retries after a
// lossy rung do not run into them. nominalRate and overloadRate name
// the rungs the latency and overload metrics come from.
var ladder = []struct {
	rate  float64
	share float64
}{
	{10000, 0.06}, {40000, 0.05}, {10000, 0.06}, {60000, 0.05}, {80000, 0.08},
	{10000, 0.06}, {100000, 0.08}, {110000, 0.08}, {10000, 0.06}, {120000, 0.12},
	{140000, 0.08}, {10000, 0.06}, {160000, 0.08}, {200000, 0.08},
}

const (
	nominalRate  = 10000
	overloadRate = 120000
)

// request classes.
const (
	classHit = iota
	classMiss
	classAuth // straight to the authoritative (traced run only)
	numClasses
)

var classNames = [numClasses]string{"hit", "miss", "auth"}

// ---- inputs ----

// udpInputs are the generated inputs of one seed: the zone text and the
// answer each name must get.
type udpInputs struct {
	seed     int64
	zoneText string
	hotQName [hotNames][]byte // wire-format owner names
	hotAddr  [hotNames][16]byte
	missTag  string // never-seen names are <missTag><n>.m.<origin>
	missAddr [16]byte
}

const benchOrigin = "bench.test."

func makeInputs(seed int64) *udpInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &udpInputs{seed: seed, missTag: "q" + strconv.FormatUint(uint64(rng.Uint32()), 36) + "-"}
	var b strings.Builder
	fmt.Fprintf(&b, "$ORIGIN %s\n$TTL 3600\n@ IN SOA ns1 hostmaster 1 7200 3600 864000 60\n@ IN NS ns1\nns1 IN A 127.0.0.1\n", benchOrigin)
	for i := range in.hotAddr {
		in.hotAddr[i] = randAddr(rng)
		name := "h" + strconv.Itoa(i)
		fmt.Fprintf(&b, "%s IN AAAA %s\n", name, net.IP(in.hotAddr[i][:]))
		in.hotQName[i] = wireName(name + "." + benchOrigin)
	}
	in.missAddr = randAddr(rng)
	fmt.Fprintf(&b, "*.m IN AAAA %s\n", net.IP(in.missAddr[:]))
	in.zoneText = b.String()
	return in
}

func randAddr(rng *rand.Rand) [16]byte {
	var a [16]byte
	copy(a[:], []byte{0x20, 0x01, 0x0d, 0xb8})
	binary.BigEndian.PutUint64(a[8:], rng.Uint64())
	return a
}

// wireName encodes a fully qualified name as uncompressed labels.
func wireName(name string) []byte {
	var b []byte
	for _, l := range strings.Split(strings.TrimSuffix(name, "."), ".") {
		b = append(b, byte(len(l)))
		b = append(b, l...)
	}
	return append(b, 0)
}

// appendQuestion appends the wire question of request (class, n): hot
// name n, or the n-th never-seen name under the zone's wildcard.
func (in *udpInputs) appendQuestion(b []byte, class int, n int) []byte {
	if class == classMiss {
		label := in.missTag + strconv.Itoa(n)
		b = append(b, byte(len(label)))
		b = append(b, label...)
		b = append(b, wireName("m."+benchOrigin)...)
	} else {
		b = append(b, in.hotQName[n]...)
	}
	return append(b, 0, byte(dnswire.TypeAAAA), 0, 1) // AAAA, IN
}

func (in *udpInputs) answer(class, n int) [16]byte {
	if class == classMiss {
		return in.missAddr
	}
	return in.hotAddr[n]
}

// ---- the daemon under test ----

type daemon struct {
	srv               *authoritative.Server
	res               *recursive.Resolver
	authLoop, resLoop *udprun.Loop
	authConn, resConn *udprun.Conn
	authAddr, resAddr *net.UDPAddr
	wg                sync.WaitGroup
}

// startDaemon parses the zone, binds both engines to loopback sockets
// and starts their loops.
func startDaemon(in *udpInputs) (*daemon, error) {
	z, err := zone.ParseString(in.zoneText, "")
	if err != nil {
		return nil, fmt.Errorf("zone: %w", err)
	}
	d := &daemon{srv: authoritative.New(z), authLoop: udprun.NewLoop(), resLoop: udprun.NewLoop()}
	if d.authConn, err = udprun.Listen("127.0.0.1:0", d.authLoop); err != nil {
		return nil, err
	}
	if d.resConn, err = udprun.Listen("127.0.0.1:0", d.resLoop); err != nil {
		d.authConn.Close()
		return nil, err
	}
	d.res = recursive.NewResolver(udprun.Clock{Loop: d.resLoop}, recursive.Config{
		Cache:     cache.Config{Capacity: cacheEntries},
		RootHints: []recursive.ServerHint{{Name: "ns1." + benchOrigin, Addr: d.authConn.Addr()}},
		Seed:      in.seed,
	})
	d.res.SetConn(d.resConn)
	d.authAddr, _ = net.ResolveUDPAddr("udp", string(d.authConn.Addr()))
	d.resAddr, _ = net.ResolveUDPAddr("udp", string(d.resConn.Addr()))
	d.run(d.authLoop.Run)
	d.run(d.resLoop.Run)
	d.run(func() {
		_ = d.authConn.Serve(func(src netsim.Addr, payload []byte) {
			if out := d.srv.HandleWire(payload); out != nil {
				d.authConn.Send(src, out)
			}
		})
	})
	d.run(func() { _ = d.resConn.Serve(d.res.Receive) })
	return d, nil
}

func (d *daemon) run(f func()) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		f()
	}()
}

// stop closes the sockets and loops and waits for their goroutines.
func (d *daemon) stop() {
	d.authConn.Close()
	d.resConn.Close()
	d.authLoop.Close()
	d.resLoop.Close()
	d.wg.Wait()
}

// ---- the load generator ----

// Message IDs are the request sequence number mod 2^16. histGens
// generations of ID use are remembered, so a response that arrives
// after its request timed out (the resolver retries upstream for
// seconds) can still be checked against the question sent with its ID:
// 32 generations cover the resolver's 8 s client deadline at the
// highest rung.
const histGens = 32

// request is the outstanding request using one message ID.
type request struct {
	pending bool
	class   int
	n       int // hot index or never-seen sequence number
	due     time.Duration
	seq     int64
	rung    *rungStats
	win     int // index into rung.win; -1 in closed-loop passes
}

// rungStats collects one rung's (or drain pass's) outcomes. Latencies
// go into fixed-size histograms, so the generator's memory does not
// grow with the number of requests and peak RSS follows the daemon.
type rungStats struct {
	rate       float64
	sent       [numClasses]int64
	answered   [numClasses]int64
	servfail   int64 // SERVFAIL answers (the request failed, answered)
	lost       int64 // no response within reqTimeout
	late       int64 // responses after their request timed out
	lat        [numClasses]hist
	lateness   hist // send time past due time
	start, end time.Duration
	records    []reqRecord        // per answered nominal request, traced runs only
	win        []window           // open-loop rungs only
	segments   [][2]time.Duration // start and end of each run of this rate
}

// window is one windowLen slice of a rung, by due time.
type window struct {
	sent, answered int64
	lat            hist // resolver requests (hit and miss)
	lateness       hist
}

type reqRecord struct {
	seq       int64
	class     int
	due, done time.Duration
}

func (r *rungStats) sentAll() int64 {
	return r.sent[classHit] + r.sent[classMiss] + r.sent[classAuth]
}

func (r *rungStats) answeredAll() int64 {
	return r.answered[classHit] + r.answered[classMiss] + r.answered[classAuth]
}

type generator struct {
	in     *udpInputs
	d      *daemon
	conn   *net.UDPConn
	epoch  time.Time
	rng    *rand.Rand
	traced bool

	mu      sync.Mutex
	cur     [1 << 16]request
	hist    [histGens][1 << 16]uint32 // question identity per ID use
	seq     int64
	missSeq int
	window  chan struct{} // closed loop: one token per response
	wrongs  []string

	recvDone chan struct{}
}

// newGenerator binds the generator's socket; set g.d before sending.
func newGenerator(in *udpInputs, seed int64) (*generator, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadBuffer(4 << 20) // best effort; the kernel may cap it
	g := &generator{in: in, conn: conn, epoch: time.Now(),
		rng: rand.New(rand.NewSource(seed ^ 0x5eed)), recvDone: make(chan struct{})}
	go g.receive()
	return g, nil
}

// close stops the receiver and waits for it.
func (g *generator) close() {
	g.conn.Close()
	<-g.recvDone
}

func (g *generator) now() time.Duration { return time.Since(g.epoch) }

// pick draws the next request's class and name from the seeded mix.
func (g *generator) pick(authShare float64) (int, int) {
	u := g.rng.Float64()
	switch {
	case u < authShare:
		return classAuth, g.rng.Intn(hotNames)
	case u < authShare+missShare:
		g.missSeq++
		return classMiss, g.missSeq
	default:
		return classHit, g.rng.Intn(hotNames)
	}
}

// ident packs a question's name into the history's identity: hot name k
// or never-seen name n. The hit and auth classes ask the same question.
func ident(class, n int) uint32 {
	if class == classMiss {
		return uint32(n)<<1 | 1
	}
	return uint32(n) << 1
}

// send registers and transmits one request. buf is scratch space.
func (g *generator) send(buf []byte, rs *rungStats, class, n int, due time.Duration) []byte {
	dst := g.d.resAddr
	if class == classAuth {
		dst = g.d.authAddr
	}
	g.mu.Lock()
	g.seq++
	id := uint16(g.seq)
	r := &g.cur[id]
	if r.pending {
		// The ID space wrapped while this request was outstanding.
		r.rung.lost++
	}
	win := -1
	if rs.win != nil {
		win = min(int((due-rs.start)/windowLen), len(rs.win)-1)
	}
	*r = request{pending: true, class: class, n: n, due: due, seq: g.seq, rung: rs, win: win}
	g.hist[(g.seq>>16)%histGens][id] = ident(class, n)
	rs.sent[class]++
	late := float64(g.now()-due) / 1e3
	rs.lateness.add(late)
	if win >= 0 {
		rs.win[win].sent++
		rs.win[win].lateness.add(late)
	}
	g.mu.Unlock()

	buf = buf[:0]
	buf = binary.BigEndian.AppendUint16(buf, id)
	buf = append(buf, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0) // RD; one question
	buf = g.in.appendQuestion(buf, class, n)
	_, _ = g.conn.WriteToUDP(buf, dst) // a failed send shows as a lost request
	return buf
}

// receive matches responses to requests until the socket closes.
func (g *generator) receive() {
	defer close(g.recvDone)
	buf := make([]byte, 4096)
	var q []byte
	for {
		size, err := g.conn.Read(buf)
		if err != nil {
			return
		}
		now := g.now()
		resp := buf[:size]
		g.mu.Lock()
		q = g.match(resp, now, q)
		g.mu.Unlock()
	}
}

// match checks one response and credits it to its request. It returns
// the scratch buffer q.
func (g *generator) match(resp []byte, now time.Duration, q []byte) []byte {
	if len(resp) < 12 {
		g.wrongs = append(g.wrongs, "short response")
		return q
	}
	id := binary.BigEndian.Uint16(resp)
	r := &g.cur[id]
	if r.pending {
		q = g.in.appendQuestion(q[:0], r.class, r.n)
		if bytes.HasPrefix(resp[12:], q) {
			r.pending = false
			rs := r.rung
			switch err := checkAnswer(resp, len(q), g.in.answer(r.class, r.n), r.class == classAuth); {
			case errors.Is(err, errServFail):
				rs.servfail++
			case err != nil:
				g.wrongs = append(g.wrongs, fmt.Sprintf("%s request %d: %v", classNames[r.class], r.seq, err))
			default:
				lat := float64(now-r.due) / 1e3
				rs.answered[r.class]++
				rs.lat[r.class].add(lat)
				if w := r.win; w >= 0 {
					rs.win[w].answered++
					if r.class != classAuth {
						rs.win[w].lat.add(lat)
					}
				}
				if g.traced && rs.rate == nominalRate {
					rs.records = append(rs.records, reqRecord{seq: r.seq, class: r.class, due: r.due, done: now})
				}
			}
			if g.window != nil {
				select { // any response frees a place; never block the receiver
				case g.window <- struct{}{}:
				default:
				}
			}
			return q
		}
	}
	// A response to a request that already timed out: its ID and question
	// must pair up in the history, and it must carry the zone's answer.
	class, n, qlen, ok := g.in.parseQuestion(resp[12:])
	if !ok {
		g.wrongs = append(g.wrongs, fmt.Sprintf("response id %d: unknown question", id))
		return q
	}
	want := ident(class, n)
	sentWithID := false
	for gen := range g.hist {
		if g.hist[gen][id] == want {
			sentWithID = true
			break
		}
	}
	if !sentWithID {
		g.wrongs = append(g.wrongs, fmt.Sprintf("response id %d: question never sent with that id", id))
		return q
	}
	fromAuth := binary.BigEndian.Uint16(resp[2:])&0x0400 != 0
	if err := checkAnswer(resp, qlen, g.in.answer(class, n), fromAuth); err != nil && !errors.Is(err, errServFail) {
		g.wrongs = append(g.wrongs, fmt.Sprintf("late response id %d: %v", id, err))
	}
	if r.rung != nil {
		r.rung.late++
	}
	return q
}

// parseQuestion recognises a question the generator asks: it returns
// the request class (hit or miss) and name index, and the question's
// length in bytes.
func (in *udpInputs) parseQuestion(b []byte) (class, n, qlen int, ok bool) {
	if len(b) < 1 || int(b[0])+1 > len(b) {
		return 0, 0, 0, false
	}
	label := string(b[1 : 1+b[0]])
	class = classHit
	num, isHot := strings.CutPrefix(label, "h")
	if seq, isMiss := strings.CutPrefix(label, in.missTag); isMiss {
		class, num = classMiss, seq
	} else if !isHot {
		return 0, 0, 0, false
	}
	v, err := strconv.Atoi(num)
	if err != nil || v < 0 || (class == classHit && v >= hotNames) {
		return 0, 0, 0, false
	}
	q := in.appendQuestion(nil, class, v)
	if !bytes.HasPrefix(b, q) {
		return 0, 0, 0, false
	}
	return class, v, len(q), true
}

var errServFail = errors.New("SERVFAIL")

// checkAnswer verifies a response whose question (qlen bytes) already
// matched: a NOERROR response carrying the zone's AAAA record, with the
// AA bit exactly when it came from the authoritative.
func checkAnswer(resp []byte, qlen int, want [16]byte, fromAuth bool) error {
	flags := binary.BigEndian.Uint16(resp[2:])
	switch {
	case flags&0x8000 == 0:
		return errors.New("QR bit clear")
	case flags&0x000f == 2:
		return errServFail
	case flags&0x000f != 0:
		return fmt.Errorf("rcode %d", flags&0x000f)
	case (flags&0x0400 != 0) != fromAuth:
		return fmt.Errorf("AA bit %v", flags&0x0400 != 0)
	case binary.BigEndian.Uint16(resp[4:]) != 1:
		return errors.New("question count != 1")
	}
	an := int(binary.BigEndian.Uint16(resp[6:]))
	off := 12 + qlen
	for i := 0; i < an; i++ {
		off = skipName(resp, off)
		if off < 0 || off+10 > len(resp) {
			return errors.New("truncated answer record")
		}
		typ := binary.BigEndian.Uint16(resp[off:])
		rdlen := int(binary.BigEndian.Uint16(resp[off+8:]))
		off += 10
		if off+rdlen > len(resp) {
			return errors.New("truncated rdata")
		}
		if typ == uint16(dnswire.TypeAAAA) && rdlen == 16 {
			if bytes.Equal(resp[off:off+16], want[:]) {
				return nil
			}
			return fmt.Errorf("AAAA %v, want %v", net.IP(resp[off:off+16]), net.IP(want[:]))
		}
		off += rdlen
	}
	return errors.New("no AAAA answer")
}

// skipName returns the offset just past the (possibly compressed) name
// at off, or -1 when it runs off the message.
func skipName(b []byte, off int) int {
	for off < len(b) {
		l := int(b[off])
		switch {
		case l == 0:
			return off + 1
		case l&0xc0 == 0xc0:
			if off+2 > len(b) {
				return -1
			}
			return off + 2
		default:
			off += 1 + l
		}
	}
	return -1
}

// runRung offers rate queries per second for dur in an open loop.
// Requests are due evenly spaced and each is timed from its due time;
// the sender sleeps to the next due time and then sends every request
// due by the time it wakes. authShare of them go straight to the
// authoritative.
func (g *generator) runRung(rate float64, dur time.Duration, authShare float64) *rungStats {
	runtime.GC() // every rung starts from a collected heap
	rs := &rungStats{rate: rate, win: make([]window, max(1, int(dur/windowLen)))}
	var buf []byte
	start := g.now()
	rs.start = start
	total := int(rate * dur.Seconds())
	dueOf := func(i int) time.Duration { return start + time.Duration(float64(i)/rate*1e9) }
	for i := 0; i < total; {
		g.sleepUntil(dueOf(i))
		now := g.now()
		for ; i < total && dueOf(i) <= now; i++ {
			class, n := g.pick(authShare)
			buf = g.send(buf, rs, class, n, dueOf(i))
		}
	}
	rs.end = g.now()
	rs.segments = [][2]time.Duration{{rs.start, rs.end}}
	g.settle(rs)
	return rs
}

// sleepUntil blocks the sender in nanosleep until t. time.Sleep wakes
// up to a millisecond late here, which would dominate loopback
// latencies; nanosleep wakes within the kernel's timer slack.
func (g *generator) sleepUntil(t time.Duration) {
	d := t - g.now()
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only sends less per batch
}

// settle waits for a rung's outstanding requests and counts those still
// unanswered after reqTimeout as lost.
func (g *generator) settle(rs *rungStats) {
	deadline := time.Now().Add(reqTimeout)
	for {
		g.mu.Lock()
		pending := 0
		for i := range g.cur {
			if r := &g.cur[i]; r.pending && r.rung == rs {
				pending++
			}
		}
		if pending == 0 || time.Now().After(deadline) {
			for i := range g.cur {
				if r := &g.cur[i]; r.pending && r.rung == rs {
					r.pending = false
					rs.lost++
				}
			}
			g.mu.Unlock()
			return
		}
		g.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
}

// closedLoop sends count requests, request i asking pick(i), with at
// most window outstanding, and returns the host time until the last was
// answered (or timed out).
func (g *generator) closedLoop(count, window int, pick func(i int) (class, n int)) (*rungStats, time.Duration) {
	rs := &rungStats{}
	g.mu.Lock()
	g.window = make(chan struct{}, window)
	g.mu.Unlock()
	timeout := time.NewTimer(windowWait)
	defer timeout.Stop()
	// await takes one response's token, or gives up the place of a
	// request presumed lost after windowWait.
	await := func() {
		if !timeout.Stop() {
			select { // drop a firing the last await did not take
			case <-timeout.C:
			default:
			}
		}
		timeout.Reset(windowWait)
		select {
		case <-g.window:
		case <-timeout.C:
		}
	}
	var buf []byte
	start := g.now()
	rs.start = start
	for i := 0; i < count; i++ {
		if i >= window {
			await()
		}
		class, n := pick(i)
		buf = g.send(buf, rs, class, n, g.now())
	}
	for i := 0; i < min(count, window); i++ {
		await()
	}
	rs.end = g.now()
	g.mu.Lock()
	g.window = nil
	unsettled := rs.answeredAll()+rs.servfail < rs.sentAll()
	g.mu.Unlock()
	if unsettled {
		g.settle(rs)
	}
	return rs, rs.end - start
}

// drain is one closed-loop pass over the seeded mix, from a collected
// heap.
func (g *generator) drain() (*rungStats, time.Duration) {
	runtime.GC()
	return g.closedLoop(drainQueries, drainWindow, func(int) (int, int) { return g.pick(0) })
}

// warm resolves every hot name once, so later queries for them hit the
// cache.
func (g *generator) warm() error {
	rs, _ := g.closedLoop(hotNames, drainWindow, func(i int) (int, int) { return classHit, i })
	if rs.answered[classHit] != hotNames {
		return fmt.Errorf("warm-up: %d of %d hot names answered", rs.answered[classHit], hotNames)
	}
	return nil
}

// ---- the workload ----

func runResolverUDP(p params) (*report, error) {
	rep := newReport()
	in := makeInputs(p.seed)

	g, err := newGenerator(in, p.seed)
	if err != nil {
		return nil, err
	}
	defer g.close()

	// Set-up is zone parse, socket binds, loop start and hot-set
	// warm-up. The measured daemon is set up first; throwaway daemons
	// are set up and stopped at the start and again after every drain
	// pass of the schedule, so setup_s (the median) spans the run. The
	// generator is shared, so its own allocation is not timed.
	var setups []float64
	setUp := func() (*daemon, error) {
		t0 := time.Now()
		d, err := startDaemon(in)
		if err != nil {
			return nil, err
		}
		g.d = d
		if err := g.warm(); err != nil {
			d.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		return d, nil
	}
	d, err := setUp()
	if err != nil {
		return nil, err
	}
	defer d.stop()
	var setupErr error
	sampleSetup := func(n int) {
		for i := 0; i < n && setupErr == nil; i++ {
			var extra *daemon
			if extra, setupErr = setUp(); setupErr == nil {
				extra.stop()
			}
		}
		g.d = d
	}
	sampleSetup(setupsAtStart)

	// Drain passes: one now, then two after every nominal segment of the
	// schedule (untraced), or drainPasses in a row before the traced run.
	// The resident set is sampled from here to the end of the schedule.
	rss := sampleRSS(rssPercentile, rssEvery)
	var drains drainLog
	g.drainPass(rep, &drains)
	if p.trace {
		for len(drains.walls) < drainPasses {
			g.drainPass(rep, &drains)
		}
	} else {
		rungs := g.runLadder(p.seconds, 0, func(rate float64) {
			if rate != nominalRate {
				return
			}
			for i := 0; i < drainsBetween; i++ {
				g.drainPass(rep, &drains)
				sampleSetup(1)
			}
		})
		g.mu.Lock() // late responses still update the rungs' counters
		scoreLadder(rep, rungs)
		g.mu.Unlock()
	}
	rep.metrics["peak_rss_mb"] = rss()
	// A busy spell on a shared host only slows a pass, and a run's 21
	// short passes catch some of them: the fastest quartile is the
	// daemon's own speed (over two sets of five and six runs its
	// spread was 3-7%, the median's 9-10%).
	wall := percentile(sortedCopy(drains.walls), 25)
	rep.metrics["wall_s"] = wall
	rep.metrics["vps"] = percentile(sortedCopy(drains.perCPU), 75)
	rep.note("drain passes (%d queries, window %d) s: %v", drainQueries, drainWindow, drains.walls)
	rep.note("drain passes answered per CPU s: %v", drains.perCPU)
	rep.note("VmHWM %.1f MB", statusMB("VmHWM:"))
	if setupErr != nil {
		return nil, setupErr
	}
	rep.metrics["setup_s"] = median(setups)

	if p.trace {
		if err := traceResolver(p, rep, g, wall); err != nil {
			return nil, err
		}
	}
	g.mu.Lock()
	for _, w := range g.wrongs {
		rep.fail("%s", w)
	}
	rep.failed += int64(len(g.wrongs))
	g.mu.Unlock()
	rep.digest = digest(in.zoneText)
	return rep, nil
}

// runLadder runs the schedule, each step for its share of seconds,
// calling between with each step's rate after it, and returns one rung
// per rate (segments
// of a rate merged) in ascending rate. authShare of the nominal rate's
// requests go straight to the authoritative.
func (g *generator) runLadder(seconds, authShare float64, between func(rate float64)) []*rungStats {
	byRate := map[float64]*rungStats{}
	var rungs []*rungStats
	for _, r := range ladder {
		share := 0.0
		if r.rate == nominalRate {
			share = authShare
		}
		rs := g.runRung(r.rate, time.Duration(r.share*seconds*float64(time.Second)), share)
		between(r.rate)
		if m := byRate[r.rate]; m != nil {
			g.mu.Lock() // a late response may still count against rs
			m.merge(rs)
			g.mu.Unlock()
			continue
		}
		byRate[r.rate] = rs
		rungs = append(rungs, rs)
	}
	sort.Slice(rungs, func(i, j int) bool { return rungs[i].rate < rungs[j].rate })
	return rungs
}

// merge adds another segment of the same rate to r.
func (r *rungStats) merge(o *rungStats) {
	for c := range r.sent {
		r.sent[c] += o.sent[c]
		r.answered[c] += o.answered[c]
		r.lat[c].merge(&o.lat[c])
	}
	r.servfail += o.servfail
	r.lost += o.lost
	r.late += o.late
	r.lateness.merge(&o.lateness)
	r.records = append(r.records, o.records...)
	r.win = append(r.win, o.win...)
	r.segments = append(r.segments, o.segments...)
}

// drainLog holds each drain pass's host seconds and resolver answers
// per CPU second of the process (daemon and generator).
type drainLog struct{ walls, perCPU []float64 }

// drainPass runs one closed-loop pass and records its host time, its
// answers per CPU second and its failures.
func (g *generator) drainPass(rep *report, log *drainLog) {
	cpu0 := cpuSeconds()
	rs, dt := g.drain()
	log.walls = append(log.walls, dt.Seconds())
	log.perCPU = append(log.perCPU, float64(rs.answeredAll())/(cpuSeconds()-cpu0))
	rep.attempted += rs.sentAll()
	rep.failed += rs.sentAll() - rs.answeredAll()
}

// cpuSeconds is the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rungScore is a scored rung's distance to the limits: at most 1 when
// its p99 latency (median over windows) and its unanswered share (over
// the whole rung: losses come in bursts, which a median would hide) are
// both within them.
func rungScore(p99US, lossFrac float64) float64 {
	return max(p99US/float64(p99Limit.Microseconds()), lossFrac/lossLimit)
}

// scoreLadder fills the latency, rate and overload metrics from the
// rungs and notes every rung. max_rate_qps is the rate at which a
// least-squares line through ln(score) over the valid loaded rungs
// (fitFrom and up) reaches 1: every loaded rung's measurement counts,
// so one noisy rung moves the crossing a little instead of setting it,
// and a crossing beyond the ladder is extrapolated rather than pinned
// to a ladder rate. Rungs where the generator lagged are invalid and
// take no part.
func scoreLadder(rep *report, rungs []*rungStats) {
	var rates, scores []float64
	for _, rs := range rungs {
		var p50s, p99s, lates []float64
		valid := true
		for i := range rs.win {
			w := &rs.win[i]
			p50s = append(p50s, w.lat.percentile(50))
			p99s = append(p99s, w.lat.percentile(99))
			lates = append(lates, w.lateness.percentile(99))
			valid = valid && tailPercentile(int(w.lat.n)) >= 99
		}
		p50, p99, lateP99 := median(p50s), median(p99s), median(lates)
		valid = valid && lateP99 <= float64(lateLimit.Microseconds())
		sent := rs.sentAll()
		lossFrac := float64(sent-rs.answeredAll()) / float64(sent)
		score := rungScore(p99, lossFrac)
		rep.note("rung %6.0f qps: sent %7d answered %7d servfail %5d lost %6d late %5d  p50 %8.1f us  p99 %9.1f us  gen-late p99 %8.1f us  score %.3f valid=%v (medians of %d windows)",
			rs.rate, sent, rs.answeredAll(), rs.servfail, rs.lost, rs.late, p50, p99, lateP99, score, valid, len(rs.win))
		switch rs.rate {
		case nominalRate:
			rep.metrics["p50_us"] = p50
			rep.metrics["p99_us"] = p99
			rep.attempted += sent
			rep.failed += sent - rs.answeredAll()
		case overloadRate:
			rep.metrics["answered_frac_overload"] = 1 - lossFrac
		}
		if valid && rs.rate >= fitFrom {
			rates = append(rates, rs.rate)
			scores = append(scores, score)
		}
	}
	maxRate, ok := logCrossing(rates, scores)
	switch {
	case !ok:
		rep.note("max_rate_qps: UNSCORED: %d valid loaded rungs, no rising fit", len(rates))
	case maxRate < rates[0] || maxRate > rates[len(rates)-1]:
		rep.note("max_rate_qps: crossing at %.0f qps lies outside the valid rungs %.0f-%.0f (extrapolated)",
			maxRate, rates[0], rates[len(rates)-1])
	}
	rep.metrics["max_rate_qps"] = maxRate
}

// traceResolver is the traced run: the ladder (with a share of the
// nominal rung sent straight to the authoritative) and one drain pass
// under a CPU profile, with a span per request.
func traceResolver(p params, rep *report, g *generator, untracedWall float64) error {
	const authShare = 0.1
	tr := newTracer()
	g.mu.Lock()
	g.traced = true
	g.mu.Unlock()
	var rungs []*rungStats
	var drain *rungStats
	var drainWall time.Duration
	var ms memDelta
	prof, err := profiled(func() error {
		ms = measureMem(func() { rungs = g.runLadder(p.seconds, authShare, func(float64) {}) })
		drain, drainWall = g.drain()
		return nil
	})
	if err != nil {
		return err
	}
	sent := drain.sentAll()
	tr.add("drain", 0, 0, g.epoch.Add(drain.start), g.epoch.Add(drain.end))
	for _, rs := range rungs {
		sent += rs.sentAll()
		var ids []int64
		for _, seg := range rs.segments {
			ids = append(ids, tr.add(fmt.Sprintf("rung.%.0f", rs.rate), 0, 0, g.epoch.Add(seg[0]), g.epoch.Add(seg[1])))
		}
		if rs.rate != nominalRate {
			continue // request spans of the nominal rate only, to bound the file
		}
		for _, rec := range rs.records {
			parent := ids[0]
			for i, seg := range rs.segments {
				if rec.due >= seg[0] {
					parent = ids[i]
				}
			}
			tr.add("request."+classNames[rec.class], parent, rec.seq, g.epoch.Add(rec.due), g.epoch.Add(rec.done))
		}
	}
	for _, d := range perLayer {
		rep.metrics[d.name] = 0
	}
	for _, rs := range rungs {
		if rs.rate != nominalRate {
			continue
		}
		hit, miss := &rs.lat[classHit], &rs.lat[classMiss]
		rep.metrics["recursive.hit_p50_us"] = hit.percentile(50)
		rep.metrics["recursive.hit_p99_us"] = hit.percentile(99)
		rep.metrics["recursive.miss_p50_us"] = miss.percentile(50)
		rep.metrics["recursive.miss_p99_us"] = miss.percentile(99)
		rep.metrics["udprun.auth_direct_p50_us"] = rs.lat[classAuth].percentile(50)
		rep.metrics["gen.late_p99_us"] = rs.lateness.percentile(99)
		rep.note("traced nominal rung: %d hit, %d miss, %d auth-direct samples; miss p99 is the p%g tail",
			hit.n, miss.n, rs.lat[classAuth].n, min(99, tailPercentile(int(miss.n))))
	}
	rep.metrics["runtime.allocs_per_query"] = float64(ms.mallocs) / float64(sent-drain.sentAll())
	rep.metrics["runtime.gc_cycles"] = float64(ms.gcs)
	rep.metrics["trace.overhead_ratio"] = drainWall.Seconds() / untracedWall

	st := g.d.res.Stats()
	rep.metrics["cache.hit_ratio"] = ratio(st.CacheHits, st.CacheHits+st.CacheMisses)
	rep.metrics["resolver.upstream_per_client"] = ratio(st.UpstreamQueries, st.ClientQueries)
	rep.metrics["resolver.upstream_retries"] = float64(st.UpstreamRetries)
	rep.metrics["resolver.stale_serves"] = float64(st.StaleServes)
	rep.metrics["authoritative.queries"] = float64(g.d.srv.Stats().Queries)
	return writeTrace(p, rep, tr, prof)
}
