package app

import (
	"math"

	"ncap/internal/driver"
	"ncap/internal/netsim"
	"ncap/internal/oskernel"
	"ncap/internal/resilience"
	"ncap/internal/sim"
	"ncap/internal/stats"
	"ncap/internal/telemetry"
)

// DefaultDiskConcurrency is the storage path's internal parallelism.
const DefaultDiskConcurrency = 40

// Server is the OLDI application instance on the server node. It consumes
// packets from the driver's deliver path, runs the profile's service model
// on kernel-scheduled tasks, and transmits responses back through the
// driver.
type Server struct {
	k       *oskernel.Kernel
	drv     *driver.Driver
	profile Profile
	rng     *sim.Rand
	disk    *Disk // nil for memory-resident profiles
	addr    netsim.Addr

	// Affine pins each request's application task to the core that polled
	// it — the flow-affinity of a multi-queue NIC deployment (Sec. 7).
	// When false (the paper's single-queue baseline) tasks go to the
	// least-loaded core.
	Affine bool

	// Dedup enables transport-level duplicate suppression: a duplicate
	// of a request still being served is absorbed (its response is
	// already on the way), and a duplicate of a recently served request
	// retransmits the stored response without re-running the application
	// work — TCP's retransmission semantics, needed once the fabric can
	// lose, duplicate, or delay frames. Off by default so the fault-free
	// experiments replay bit-identically.
	Dedup bool

	// DedupCap overrides the served-response memory bound (zero keeps
	// dedupWindow). Set before traffic flows.
	DedupCap int

	dupInflight map[uint64]bool // requests currently being served
	dupServed   map[uint64]int  // recently served request → response bytes
	dupOrder    []uint64        // FIFO eviction ring over dupServed
	dupHead     int             // consumed prefix of dupOrder

	// Admission-control state (EnableAdmission; zero-valued when off, and
	// the legacy socket path never reads it).
	admitOn     bool
	queueCap    int
	maxInflight int
	admitPolicy resilience.AdmitPolicy
	codel       *resilience.CoDel
	queue       []admitEntry
	queueHead   int
	queuePeak   int
	svcEst      sim.Duration // smoothed dispatch→finish time (EWMA)
	lastIdle    sim.Time
	trace       *telemetry.EventTrace // shed/reject events (nil = off)

	reqFree sim.FreeList[request]
	segs    []*netsim.Packet // response segmentation scratch

	// Served counts completed requests; Ignored counts non-request
	// packets reaching the socket layer; DiskReads counts cache misses.
	Served    stats.Counter
	Ignored   stats.Counter
	DiskReads stats.Counter
	// DupSuppressed counts duplicates absorbed while the original was in
	// flight; DupResent counts stored responses retransmitted.
	DupSuppressed stats.Counter
	DupResent     stats.Counter
	// Rejected counts arrivals refused at a full admission queue;
	// ShedDeadline/ShedCoDel count dispatch-time sheds per policy.
	Rejected     stats.Counter
	ShedDeadline stats.Counter
	ShedCoDel    stats.Counter
	Inflight     int
}

// dedupWindow bounds the served-request memory. At the paper's highest
// load (138 K RPS) it covers ~60 ms of history — several RTOs deep.
const dedupWindow = 8192

// NewServer assembles the application. rng must be a dedicated stream.
func NewServer(k *oskernel.Kernel, drv *driver.Driver, profile Profile, rng *sim.Rand, addr netsim.Addr) *Server {
	if err := profile.Validate(); err != nil {
		panic(err)
	}
	s := &Server{k: k, drv: drv, profile: profile, rng: rng, addr: addr}
	if profile.DiskProb > 0 {
		s.disk = NewDisk(k.Engine(), rng, profile.DiskMean, DefaultDiskConcurrency)
	}
	return s
}

// Profile returns the workload profile.
func (s *Server) Profile() Profile { return s.profile }

// Disk returns the storage model (nil for memory-resident profiles).
func (s *Server) Disk() *Disk { return s.disk }

// HandleDelivered is the driver's deliver callback: the socket layer.
// Each request becomes an application task; cache misses release the core
// while the storage access is in flight, then the response transmits from
// the core that served the request. pollCore is the core that polled the
// packet; with Affine set, the task stays there.
func (s *Server) HandleDelivered(p *netsim.Packet, pollCore int) {
	if p.Kind != netsim.KindRequest {
		s.Ignored.Inc()
		p.Release()
		return
	}
	if s.Dedup && s.absorbDuplicate(p, pollCore) {
		return // absorbDuplicate released the packet
	}
	if s.admitOn {
		s.admitRequest(p, pollCore)
		return
	}
	s.Inflight++
	cycles := s.profile.ParseCycles + s.serviceCycles()
	s.runTask(s.newRequest(p), pollCore, cycles, serverServe)
}

// request is one request's server-side state from socket delivery to
// response: the argument of its application task, disk access and finish
// steps, so none of them needs a closure. The server owns it throughout
// and recycles it when the response goes to the driver.
type request struct {
	s        *Server
	p        *netsim.Packet // nil for a stored-response resend
	core     int            // core the application task ran on
	admitted bool           // dispatched by the admission queue
	start    sim.Time       // admission dispatch time

	// A stored-response resend (absorbDuplicate) carries the routing
	// fields and body size instead of the released request packet.
	src   netsim.Addr
	reqID uint64
	body  int
}

func (s *Server) newRequest(p *netsim.Packet) *request {
	r := s.reqFree.Get()
	r.s, r.p = s, p
	return r
}

// freeRequest recycles r; the caller copies out what it still needs.
func (s *Server) freeRequest(r *request) {
	*r = request{}
	s.reqFree.Put(r)
}

// runTask submits r's application task of the given cost — pinned to
// pollCore with Affine set, else placed by the kernel — and records the
// core it runs on; fn(r, nil) runs when the task completes.
func (s *Server) runTask(r *request, pollCore int, cycles int64, fn func(a0, a1 any)) {
	if s.Affine {
		r.core = pollCore
		s.k.SubmitTaskOn(pollCore, s.profile.Name, cycles, fn, r, nil)
		return
	}
	r.core = s.k.SubmitTask(s.profile.Name, cycles, fn, r, nil).ID()
}

// serverServe runs when a request's application task completes (a0 is
// the *request): a cache miss first waits for the disk.
func serverServe(a0, _ any) {
	r := a0.(*request)
	s := r.s
	if s.disk != nil && s.rng.Bool(s.profile.DiskProb) {
		s.DiskReads.Inc()
		s.disk.Read(serverFinish, r, nil)
		return
	}
	serverFinish(r, nil)
}

// serverFinish sends the request's response (a0 is the *request).
func serverFinish(a0, _ any) {
	r := a0.(*request)
	s, p, core, admitted, start := r.s, r.p, r.core, r.admitted, r.start
	s.freeRequest(r)
	if admitted {
		s.finishAdmitted(p, core, start)
		return
	}
	s.finish(p, core)
}

func (s *Server) finish(req *netsim.Packet, coreID int) {
	s.Inflight--
	s.Served.Inc()
	// A replayed request pins its response size (the trace records it);
	// the profile draw is skipped entirely so the random stream advances
	// only for requests that actually consume it.
	body := req.RespHint
	if body <= 0 {
		body = s.responseBytes()
	}
	if s.Dedup {
		s.rememberServed(req.ReqID, body)
	}
	s.segs = netsim.SegmentResponse(s.segs[:0], s.addr, req.Src, req.ReqID, body)
	req.Release()
	s.sendSegs(coreID)
}

// sendSegs hands the segmented response to the driver, which copies the
// frame pointers, so the scratch slice is free again at once.
func (s *Server) sendSegs(coreID int) {
	s.drv.Send(coreID, s.segs)
	clear(s.segs)
}

// absorbDuplicate handles a retransmitted request. A duplicate of an
// in-flight request is dropped (the response is coming); a duplicate of
// a recently served one retransmits the stored response, charging only
// the parse cost — no application re-execution, no fresh randomness, so
// the response body is byte-for-byte the one the client lost.
func (s *Server) absorbDuplicate(p *netsim.Packet, pollCore int) bool {
	if s.dupInflight == nil {
		s.dupInflight = map[uint64]bool{}
		s.dupServed = map[uint64]int{}
	}
	if s.dupInflight[p.ReqID] {
		s.DupSuppressed.Inc()
		p.Release()
		return true
	}
	if body, ok := s.dupServed[p.ReqID]; ok {
		s.DupResent.Inc()
		// Copy the routing fields out: the packet is released now, before
		// the deferred resend task runs.
		r := s.newRequest(nil)
		r.src, r.reqID, r.body = p.Src, p.ReqID, body
		p.Release()
		s.runTask(r, pollCore, s.profile.ParseCycles, serverResend)
		return true
	}
	s.dupInflight[p.ReqID] = true
	return false
}

// serverResend retransmits a stored response (a0 is the *request).
func serverResend(a0, _ any) {
	r := a0.(*request)
	s, core := r.s, r.core
	s.segs = netsim.SegmentResponse(s.segs[:0], s.addr, r.src, r.reqID, r.body)
	s.freeRequest(r)
	s.sendSegs(core)
}

// rememberServed moves a request from in-flight to the bounded
// served-response memory, evicting the oldest entry past the window. The
// eviction ring advances by head index and compacts once the consumed
// prefix dominates, so a sustained retry storm cannot grow the backing
// array without bound.
func (s *Server) rememberServed(reqID uint64, body int) {
	delete(s.dupInflight, reqID)
	if _, dup := s.dupServed[reqID]; !dup {
		s.dupOrder = append(s.dupOrder, reqID)
	}
	s.dupServed[reqID] = body
	window := s.DedupCap
	if window <= 0 {
		window = dedupWindow
	}
	if len(s.dupOrder)-s.dupHead > window {
		evict := s.dupOrder[s.dupHead]
		s.dupHead++
		delete(s.dupServed, evict)
		if s.dupHead > 64 && s.dupHead*2 >= len(s.dupOrder) {
			s.dupOrder = append(s.dupOrder[:0], s.dupOrder[s.dupHead:]...)
			s.dupHead = 0
		}
	}
}

// DedupRing returns the eviction ring's live length and backing capacity
// (tests: both must stay bounded under a retry storm).
func (s *Server) DedupRing() (live, backing int) {
	return len(s.dupOrder) - s.dupHead, cap(s.dupOrder)
}

// ResetStats zeroes request accounting at the warmup boundary.
func (s *Server) ResetStats() {
	s.Served.Reset()
	s.Ignored.Reset()
	s.DiskReads.Reset()
	s.DupSuppressed.Reset()
	s.DupResent.Reset()
	s.Rejected.Reset()
	s.ShedDeadline.Reset()
	s.ShedCoDel.Reset()
	s.queuePeak = s.QueueLen()
	s.lastIdle = 0
}

func (s *Server) serviceCycles() int64 {
	if s.profile.AppSigma <= 0 {
		return s.profile.AppCycles
	}
	// Lognormal with mean preserved: multiplier mean 1.
	sigma := s.profile.AppSigma
	mult := math.Exp(s.rng.Normal(-sigma*sigma/2, sigma))
	c := int64(float64(s.profile.AppCycles) * mult)
	if c < 1000 {
		c = 1000
	}
	return c
}

func (s *Server) responseBytes() int {
	if s.profile.ResponseSigma <= 0 {
		return s.profile.ResponseBytes
	}
	sigma := s.profile.ResponseSigma
	mult := math.Exp(s.rng.Normal(-sigma*sigma/2, sigma))
	b := int(float64(s.profile.ResponseBytes) * mult)
	if b < 64 {
		b = 64
	}
	if b > 256*1024 {
		b = 256 * 1024
	}
	return b
}
