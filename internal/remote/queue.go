package remote

// queue.go implements the bounded in-memory job queue behind the async
// job API: priority classes with strict ordering between them,
// round-robin fairness across clients within a class (one heavy client
// cannot starve the others), FIFO order within each client's stream,
// a hard bound on admitted-but-unstarted jobs (admission control sheds
// the excess with 429 + Retry-After at the API layer), and TTL-based
// expiry of finished results that no one came back to claim. This is
// the D-Wave-cloud-style submit/poll job model the paper's deployment
// figure gestures at, scaled down to one annealerd process.

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Priority is a job's admission class. Lower values are served first;
// within a class, clients are served round-robin and each client's own
// jobs run FIFO.
type Priority int

const (
	// PriorityInteractive is for latency-sensitive callers (a solver
	// blocked on this result).
	PriorityInteractive Priority = iota
	// PriorityBatch is the default for bulk solving that still has a
	// caller waiting, just not a human.
	PriorityBatch
	// PriorityBulk is for background sweeps that should only absorb
	// leftover capacity.
	PriorityBulk

	numPriorities
)

// String renders the wire name of the priority class.
func (p Priority) String() string {
	switch p {
	case PriorityInteractive:
		return "interactive"
	case PriorityBatch:
		return "batch"
	case PriorityBulk:
		return "bulk"
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

// ParsePriority parses a wire priority name; the empty string selects
// PriorityBatch so omitting the field is safe.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "batch":
		return PriorityBatch, nil
	case "interactive":
		return PriorityInteractive, nil
	case "bulk":
		return PriorityBulk, nil
	}
	return 0, fmt.Errorf("remote: unknown priority %q", s)
}

// JobState is one job's lifecycle position.
type JobState int

const (
	// JobQueued: admitted, waiting for a worker.
	JobQueued JobState = iota
	// JobRunning: a worker is sampling.
	JobRunning
	// JobDone: finished successfully; result held until claimed or TTL.
	JobDone
	// JobFailed: finished with an error; held like a result.
	JobFailed
	// JobCanceled: canceled before completing.
	JobCanceled
)

// String renders the wire name of the state.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Queue defaults.
const (
	DefaultMaxQueued    = 1024
	DefaultMaxPerClient = 256
	DefaultResultTTL    = 5 * time.Minute
	DefaultMaxRetained  = 4096
)

// ErrQueueFull reports that admission control rejected a submission:
// the queue (or the submitting client's share of it) is at capacity.
var ErrQueueFull = errors.New("remote: job queue full")

// ErrQueueClosed reports that the queue has been shut down.
var ErrQueueClosed = errors.New("remote: job queue closed")

// queuedJob is one job's full record. The queue owns it; snapshots are
// handed out by value.
type queuedJob struct {
	id       string
	client   string
	priority Priority
	seq      uint64 // admission order, for position reporting
	req      SampleRequest

	state    JobState
	result   *SampleResponse
	errCode  int // HTTP status to report for JobFailed
	errMsg   string
	enqueued time.Time
	started  time.Time
	finished time.Time

	cancel  context.CancelFunc // set while running
	observe func(JobState)     // set while running: told the outcome before watchers wake
	changed chan struct{}      // closed and replaced on every transition

	// Coalescing: a follower is an admitted job whose request is
	// byte-identical to an in-flight primary's. It holds a place in
	// q.jobs (Get/Watch/Cancel address it like any job) but occupies no
	// class slot and no q.queued capacity; the primary's settle fans the
	// one result out to all of its followers.
	follower  bool
	followers []*queuedJob // primary only: live followers sharing this run
}

// JobStatus is a point-in-time public snapshot of one job.
type JobStatus struct {
	ID       string
	Client   string
	Priority Priority
	State    JobState
	// Position counts queued jobs that will be served before this one
	// under strict priority ordering (approximate within a class: the
	// fairness rotation can reorder across clients). 0 when not queued.
	Position int
	Result   *SampleResponse // non-nil only for JobDone
	ErrCode  int
	ErrMsg   string
	Enqueued time.Time
	Started  time.Time
	Finished time.Time
}

// JobLease is a dequeued job handed to a worker. The worker must settle
// it with exactly one of Complete/Fail (Cancel may race in and win, in
// which case both become no-ops).
type JobLease struct {
	ID       string
	Client   string
	Priority Priority
	Req      SampleRequest
	Enqueued time.Time
	Started  time.Time
}

// priorityClass is the fair scheduler for one priority level: a FIFO
// list per client plus a round-robin rotation over clients that have
// pending jobs.
type priorityClass struct {
	clients map[string]*list.List // client -> FIFO of *queuedJob
	ring    []string              // clients with pending jobs, rotation order
	next    int                   // ring cursor
	depth   int                   // total queued jobs in this class
}

func newPriorityClass() *priorityClass {
	return &priorityClass{clients: make(map[string]*list.List)}
}

// push appends a job to its client's FIFO, registering the client in
// the rotation if it had no pending jobs.
func (pc *priorityClass) push(j *queuedJob) {
	ll, ok := pc.clients[j.client]
	if !ok {
		ll = list.New()
		pc.clients[j.client] = ll
	}
	if ll.Len() == 0 {
		pc.ring = append(pc.ring, j.client)
	}
	ll.PushBack(j)
	pc.depth++
}

// pop takes the next job in fairness order: the rotation's current
// client gives up the head of its FIFO, then the rotation advances (or
// drops the client if it has nothing left).
func (pc *priorityClass) pop() *queuedJob {
	if pc.depth == 0 {
		return nil
	}
	if pc.next >= len(pc.ring) {
		pc.next = 0
	}
	client := pc.ring[pc.next]
	ll := pc.clients[client]
	j := ll.Remove(ll.Front()).(*queuedJob)
	pc.depth--
	if ll.Len() == 0 {
		pc.ring = append(pc.ring[:pc.next], pc.ring[pc.next+1:]...)
		if pc.next >= len(pc.ring) {
			pc.next = 0
		}
	} else {
		pc.next = (pc.next + 1) % len(pc.ring)
	}
	return j
}

// remove unlinks a specific queued job (cancellation); returns false if
// the job is not in this class.
func (pc *priorityClass) remove(j *queuedJob) bool {
	ll, ok := pc.clients[j.client]
	if !ok {
		return false
	}
	for el := ll.Front(); el != nil; el = el.Next() {
		if el.Value.(*queuedJob) == j {
			ll.Remove(el)
			pc.depth--
			if ll.Len() == 0 {
				for i, c := range pc.ring {
					if c == j.client {
						pc.ring = append(pc.ring[:i], pc.ring[i+1:]...)
						if pc.next > i {
							pc.next--
						}
						if pc.next >= len(pc.ring) {
							pc.next = 0
						}
						break
					}
				}
			}
			return true
		}
	}
	return false
}

// JobQueue is the bounded fair job queue. The zero value is not ready;
// use NewJobQueue. All methods are safe for concurrent use.
type JobQueue struct {
	// MaxQueued bounds jobs admitted but not yet running; Submit beyond
	// it returns ErrQueueFull. Set by NewJobQueue.
	MaxQueued int
	// MaxPerClient bounds one client's share of the queue, so a single
	// client cannot fill it and starve admission for everyone else.
	MaxPerClient int
	// ResultTTL is how long a finished job's result is retained for
	// claiming. Expired jobs disappear (GET returns not-found).
	ResultTTL time.Duration
	// MaxRetained bounds finished jobs held for claiming; beyond it the
	// oldest are dropped early, keeping memory bounded even when no one
	// claims anything and the TTL is long.
	MaxRetained int

	now func() time.Time // test hook; nil = time.Now

	mu       sync.Mutex
	classes  [numPriorities]*priorityClass
	jobs     map[string]*queuedJob
	coalesce map[SampleRequest]*queuedJob // in-flight primary per request content
	queued   int                          // primary jobs in JobQueued across classes
	running  int                          // jobs in JobRunning
	expiry   *list.List                   // terminal jobs in finish order (= expiry order)
	wake     chan struct{}                // closed on enqueue to signal waiting workers
	closed   bool
	seq      uint64
	salt     uint32
	expired  uint64 // results dropped by TTL or retention bound
	merged   uint64 // lifetime submissions coalesced onto an in-flight job

	// completion spacing ring, for Retry-After estimation
	completions [16]time.Time
	completed   uint64
}

// NewJobQueue builds a queue bounded at maxQueued waiting jobs whose
// finished results expire after resultTTL unclaimed. Non-positive
// arguments select the package defaults.
func NewJobQueue(maxQueued int, resultTTL time.Duration) *JobQueue {
	if maxQueued <= 0 {
		maxQueued = DefaultMaxQueued
	}
	if resultTTL <= 0 {
		resultTTL = DefaultResultTTL
	}
	q := &JobQueue{
		MaxQueued:    maxQueued,
		MaxPerClient: DefaultMaxPerClient,
		ResultTTL:    resultTTL,
		MaxRetained:  DefaultMaxRetained,
		jobs:         make(map[string]*queuedJob),
		coalesce:     make(map[SampleRequest]*queuedJob),
		expiry:       list.New(),
		wake:         make(chan struct{}),
	}
	if q.MaxPerClient > maxQueued {
		q.MaxPerClient = maxQueued
	}
	for i := range q.classes {
		q.classes[i] = newPriorityClass()
	}
	var b [4]byte
	_, _ = rand.Read(b[:])
	q.salt = binary.LittleEndian.Uint32(b[:])
	return q
}

func (q *JobQueue) clock() time.Time {
	if q.now != nil {
		return q.now()
	}
	return time.Now()
}

// Submit admits a job for client under the given priority and returns
// its ID. ErrQueueFull reports admission rejection — the queue is at
// capacity, or the client has exhausted its own share.
//
// Identical in-flight submissions coalesce: when a queued or running
// job with the exact same request content (model, reads, sweeps, seed —
// the whole SampleRequest) exists at the same priority, the new
// submission gets its own job ID but rides the existing execution as a
// follower — it consumes no queue capacity and no sampler time, and the
// primary's result (or failure) is fanned out to every follower the
// moment it settles. coalesced reports that outcome. Followers are
// first-class jobs to Get/Watch/Cancel; canceling the primary promotes
// the oldest live follower into the queue so the remaining waiters
// still get a result. Different seeds produce different keys, so
// callers that want independent stochastic runs keep them.
func (q *JobQueue) Submit(req SampleRequest, client string, prio Priority) (id string, coalesced bool, err error) {
	if prio < 0 || prio >= numPriorities {
		return "", false, fmt.Errorf("remote: invalid priority %d", int(prio))
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return "", false, ErrQueueClosed
	}
	q.sweepLocked()
	if p, ok := q.coalesce[req]; ok && p.priority == prio && len(p.followers) < q.MaxPerClient {
		q.seq++
		f := &queuedJob{
			id:       fmt.Sprintf("j%08x-%06d", q.salt, q.seq),
			client:   client,
			priority: prio,
			seq:      q.seq,
			req:      req,
			state:    JobQueued,
			enqueued: q.clock(),
			changed:  make(chan struct{}),
			follower: true,
		}
		q.jobs[f.id] = f
		p.followers = append(p.followers, f)
		q.merged++
		return f.id, true, nil
	}
	if q.queued >= q.MaxQueued {
		return "", false, ErrQueueFull
	}
	if ll, ok := q.classes[prio].clients[client]; ok && ll.Len() >= q.MaxPerClient {
		return "", false, ErrQueueFull
	}
	q.seq++
	j := &queuedJob{
		id:       fmt.Sprintf("j%08x-%06d", q.salt, q.seq),
		client:   client,
		priority: prio,
		seq:      q.seq,
		req:      req,
		state:    JobQueued,
		enqueued: q.clock(),
		changed:  make(chan struct{}),
	}
	q.jobs[j.id] = j
	q.classes[prio].push(j)
	q.queued++
	q.coalesce[req] = j
	// Broadcast to blocked Dequeues.
	close(q.wake)
	q.wake = make(chan struct{})
	return j.id, false, nil
}

// Dequeue blocks until a job is available (or ctx expires) and leases
// it to the caller, moving it to JobRunning. Jobs are served strictly
// by priority class, fairly across clients within a class, FIFO within
// one client's stream.
func (q *JobQueue) Dequeue(ctx context.Context) (JobLease, error) {
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return JobLease{}, ErrQueueClosed
		}
		q.sweepLocked()
		for _, pc := range q.classes {
			if j := pc.pop(); j != nil {
				q.queued--
				q.running++
				j.state = JobRunning
				j.started = q.clock()
				q.notifyLocked(j)
				lease := JobLease{
					ID: j.id, Client: j.client, Priority: j.priority,
					Req: j.req, Enqueued: j.enqueued, Started: j.started,
				}
				q.mu.Unlock()
				return lease, nil
			}
		}
		wake := q.wake
		q.mu.Unlock()
		select {
		case <-ctx.Done():
			return JobLease{}, ctx.Err()
		case <-wake:
		}
	}
}

// attach registers the running job's context cancel, so Cancel can
// interrupt it, and its outcome observer, which is told the state the
// job leaves running in (done, failed, or canceled when Cancel wins)
// under the queue lock, before the transition wakes any watcher. A job
// that already left the running state is observed at once.
func (q *JobQueue) attach(id string, cancel context.CancelFunc, observe func(JobState)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[id]; ok && j.state == JobRunning {
		j.cancel, j.observe = cancel, observe
	} else if ok {
		observe(j.state)
	}
}

// Complete settles a leased job with its result. No-op unless the job
// is still running (Cancel may have won the race).
func (q *JobQueue) Complete(id string, resp *SampleResponse) {
	q.settle(id, JobDone, resp, 0, "")
}

// Fail settles a leased job with an error; code is the HTTP status the
// job API reports when the result is claimed.
func (q *JobQueue) Fail(id string, code int, msg string) {
	q.settle(id, JobFailed, nil, code, msg)
}

func (q *JobQueue) settle(id string, state JobState, resp *SampleResponse, code int, msg string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok || j.state != JobRunning {
		return
	}
	q.running--
	now := q.clock()
	q.completions[q.completed%uint64(len(q.completions))] = now
	q.completed++
	j.result, j.errCode, j.errMsg = resp, code, msg
	q.finishLocked(j, state, now)
	// One execution settles every coalesced follower: each gets the
	// same result/error and its own terminal transition, sharing the
	// primary's timing (they waited on exactly that run).
	q.dropPrimaryLocked(j)
	for _, f := range j.followers {
		if f.state != JobQueued {
			continue
		}
		f.result, f.errCode, f.errMsg, f.started = resp, code, msg, j.started
		q.finishLocked(f, state, now)
	}
	j.followers = nil
	q.sweepLocked()
}

// dropPrimaryLocked removes j's coalescing-key registration, if it is
// still the registered primary for its request content (a newer primary
// may have replaced it after j stopped accepting followers). Callers
// hold q.mu.
func (q *JobQueue) dropPrimaryLocked(j *queuedJob) {
	if !j.follower && q.coalesce[j.req] == j {
		delete(q.coalesce, j.req)
	}
}

// promoteLocked hands j's live followers over after j leaves the queue
// without producing a result (cancellation): the oldest follower is
// promoted to a real queued job — it takes the class slot j vacated and
// inherits the remaining followers — so every coalesced waiter still
// gets exactly one execution. Callers hold q.mu.
func (q *JobQueue) promoteLocked(j *queuedJob) {
	q.dropPrimaryLocked(j)
	var next *queuedJob
	for _, f := range j.followers {
		if f.state != JobQueued {
			continue
		}
		if next == nil {
			next = f
		} else {
			next.followers = append(next.followers, f)
		}
	}
	j.followers = nil
	if next == nil {
		return
	}
	next.follower = false
	q.coalesce[next.req] = next
	q.classes[next.priority].push(next)
	q.queued++
	// Broadcast: a class regained a job; blocked Dequeues must recheck.
	close(q.wake)
	q.wake = make(chan struct{})
}

// Cancel cancels a job: a queued job is unlinked immediately, a running
// job has its context canceled (the worker's settle then lands on a
// canceled job and is dropped). Returns false for unknown or already
// terminal jobs. Canceling a coalesced follower detaches only that
// follower; canceling a primary promotes its oldest live follower so
// the other waiters still run.
func (q *JobQueue) Cancel(id string) bool {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || j.state.Terminal() {
		q.mu.Unlock()
		return false
	}
	var cancel context.CancelFunc
	switch j.state {
	case JobQueued:
		if j.follower {
			// Leave the primary's follower slice alone: settle and
			// promote both skip terminal entries.
		} else {
			q.classes[j.priority].remove(j)
			q.queued--
			q.promoteLocked(j)
		}
	case JobRunning:
		cancel = j.cancel
		q.running--
		q.promoteLocked(j)
	}
	q.finishLocked(j, JobCanceled, q.clock())
	q.mu.Unlock()
	if cancel != nil {
		cancel() // outside the lock: cancel fans into the sampler
	}
	return true
}

// finishLocked moves j to the terminal state st, finished at: it drops
// the cancel hook, tells the outcome observer (see attach), queues j
// for expiry and wakes its watchers; callers hold q.mu.
func (q *JobQueue) finishLocked(j *queuedJob, st JobState, at time.Time) {
	j.state, j.finished, j.cancel = st, at, nil
	if j.observe != nil {
		j.observe(st)
	}
	q.expiry.PushBack(j)
	q.notifyLocked(j)
}

// notifyLocked wakes watchers of j; callers hold q.mu.
func (q *JobQueue) notifyLocked(j *queuedJob) {
	close(j.changed)
	j.changed = make(chan struct{})
}

// Get snapshots a job. ok is false for unknown IDs — including jobs
// whose results have already expired.
func (q *JobQueue) Get(id string) (JobStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepLocked()
	j, ok := q.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return q.snapshotLocked(j), true
}

// Watch snapshots a job and returns a channel that closes on its next
// state transition, for long-polling and progress streaming.
func (q *JobQueue) Watch(id string) (JobStatus, <-chan struct{}, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepLocked()
	j, ok := q.jobs[id]
	if !ok {
		return JobStatus{}, nil, false
	}
	return q.snapshotLocked(j), j.changed, true
}

func (q *JobQueue) snapshotLocked(j *queuedJob) JobStatus {
	st := JobStatus{
		ID: j.id, Client: j.client, Priority: j.priority, State: j.state,
		Result: j.result, ErrCode: j.errCode, ErrMsg: j.errMsg,
		Enqueued: j.enqueued, Started: j.started, Finished: j.finished,
	}
	if j.state == JobQueued {
		for p := Priority(0); p < j.priority; p++ {
			st.Position += q.classes[p].depth
		}
		for _, ll := range q.classes[j.priority].clients {
			for el := ll.Front(); el != nil; el = el.Next() {
				if el.Value.(*queuedJob).seq < j.seq {
					st.Position++
				}
			}
		}
	}
	return st
}

// Depth reports jobs admitted and waiting (not running).
func (q *JobQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepLocked()
	return q.queued
}

// sweepLocked drops terminal jobs past their TTL and enforces the
// retention bound; callers hold q.mu. The expiry list is in finish
// order, which equals expiry order under a constant TTL, so the sweep
// touches only jobs that actually expire.
func (q *JobQueue) sweepLocked() {
	now := q.clock()
	for q.expiry.Len() > 0 {
		el := q.expiry.Front()
		j := el.Value.(*queuedJob)
		if q.expiry.Len() <= q.MaxRetained && now.Sub(j.finished) < q.ResultTTL {
			break
		}
		q.expiry.Remove(el)
		delete(q.jobs, j.id)
		q.expired++
	}
}

// Sweep runs one expiry pass and reports how many results have been
// dropped over the queue's lifetime. The queue also sweeps lazily on
// every operation; an explicit periodic Sweep just bounds how long an
// idle queue holds expired results.
func (q *JobQueue) Sweep() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepLocked()
	return q.expired
}

// Close shuts the queue: subsequent Submits fail with ErrQueueClosed
// and blocked Dequeues return it. Queued jobs are canceled; running
// jobs are interrupted.
func (q *JobQueue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	var cancels []context.CancelFunc
	for _, j := range q.jobs {
		switch j.state {
		case JobQueued:
			if !j.follower {
				// Followers hold no class slot and no queued count;
				// they cancel like any queued job below.
				q.classes[j.priority].remove(j)
				q.queued--
			}
			j.followers = nil
			q.finishLocked(j, JobCanceled, q.clock())
		case JobRunning:
			if j.cancel != nil {
				cancels = append(cancels, j.cancel)
				j.cancel = nil
			}
		}
	}
	q.coalesce = make(map[SampleRequest]*queuedJob)
	close(q.wake)
	q.wake = make(chan struct{})
	q.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
}

// QueueStats is a point-in-time view of queue occupancy.
type QueueStats struct {
	Queued    int    // admitted, waiting
	Running   int    // leased to workers
	Retained  int    // terminal, held for claiming
	Tracked   int    // total job records in memory
	Expired   uint64 // lifetime results dropped by TTL/retention bound
	Coalesced uint64 // lifetime submissions merged onto an identical in-flight job
	PerClass  [int(numPriorities)]int
}

// Stats snapshots queue occupancy.
func (q *JobQueue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepLocked()
	st := QueueStats{
		Queued:    q.queued,
		Running:   q.running,
		Retained:  q.expiry.Len(),
		Tracked:   len(q.jobs),
		Expired:   q.expired,
		Coalesced: q.merged,
	}
	for i, pc := range q.classes {
		st.PerClass[i] = pc.depth
	}
	return st
}

// RetryAfter estimates how long a rejected submitter should wait before
// the queue has likely drained enough to admit it: the queue depth
// times the observed spacing between recent completions, clamped to
// [10ms, 60s]. With no throughput history yet it answers 1s. The
// estimate keeps sub-second resolution — a fast queue really does drain
// in a few hundred milliseconds, and rounding that up to a second makes
// every shed client wait an order of magnitude too long; rendering the
// hint into a wire format is the HTTP layer's problem.
func (q *JobQueue) RetryAfter() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := int(q.completed)
	if n > len(q.completions) {
		n = len(q.completions)
	}
	if n < 2 {
		return time.Second
	}
	// Oldest and newest timestamps in the ring span n-1 completions.
	newest := q.completions[(q.completed-1)%uint64(len(q.completions))]
	oldest := q.completions[(q.completed-uint64(n))%uint64(len(q.completions))]
	spacing := newest.Sub(oldest) / time.Duration(n-1)
	est := time.Duration(q.queued) * spacing
	if est < 10*time.Millisecond {
		return 10 * time.Millisecond
	}
	if est > time.Minute {
		return time.Minute
	}
	return est
}
