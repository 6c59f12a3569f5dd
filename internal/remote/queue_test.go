package remote

// Property tests for the bounded fair job queue: strict priority
// between classes, FIFO within one client's stream, round-robin
// fairness across clients, TTL expiry of unclaimed results, and
// bounded memory under both admission and retention pressure.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// drain dequeues n jobs without blocking semantics mattering (the queue
// already holds them) and returns the lease order.
func drain(t *testing.T, q *JobQueue, n int) []JobLease {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out := make([]JobLease, 0, n)
	for i := 0; i < n; i++ {
		lease, err := q.Dequeue(ctx)
		if err != nil {
			t.Fatalf("Dequeue %d: %v", i, err)
		}
		out = append(out, lease)
	}
	return out
}

func TestQueueFIFOWithinClient(t *testing.T) {
	q := NewJobQueue(64, time.Minute)
	var ids []string
	for i := 0; i < 10; i++ {
		id, _, err := q.Submit(SampleRequest{Seed: int64(i)}, "alice", PriorityBatch)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	leases := drain(t, q, 10)
	for i, l := range leases {
		if l.ID != ids[i] {
			t.Fatalf("dequeue %d = %s, want %s (FIFO violated)", i, l.ID, ids[i])
		}
		if l.Req.Seed != int64(i) {
			t.Fatalf("dequeue %d carries seed %d, want %d", i, l.Req.Seed, i)
		}
	}
}

func TestQueueStrictPriorityBetweenClasses(t *testing.T) {
	q := NewJobQueue(64, time.Minute)
	// Submit in inverted priority order so arrival time cannot explain
	// the service order.
	for i := 0; i < 3; i++ {
		if _, _, err := q.Submit(SampleRequest{Seed: int64(i)}, "c", PriorityBulk); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, _, err := q.Submit(SampleRequest{Seed: int64(10 + i)}, "c", PriorityBatch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, _, err := q.Submit(SampleRequest{Seed: int64(20 + i)}, "c", PriorityInteractive); err != nil {
			t.Fatal(err)
		}
	}
	var got []Priority
	for _, l := range drain(t, q, 9) {
		got = append(got, l.Priority)
	}
	want := []Priority{
		PriorityInteractive, PriorityInteractive, PriorityInteractive,
		PriorityBatch, PriorityBatch, PriorityBatch,
		PriorityBulk, PriorityBulk, PriorityBulk,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("service order %v, want %v", got, want)
		}
	}
}

// TestQueueFairnessAcrossClients pins the round-robin property: a
// client that floods the queue first cannot starve later arrivals in
// the same class — every waiting client is served once per rotation, so
// the gap between two consecutive services of one client never exceeds
// the number of clients with pending jobs.
func TestQueueFairnessAcrossClients(t *testing.T) {
	q := NewJobQueue(256, time.Minute)
	// "hog" floods 20 jobs before anyone else arrives.
	for i := 0; i < 20; i++ {
		if _, _, err := q.Submit(SampleRequest{Seed: int64(i)}, "hog", PriorityBatch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, _, err := q.Submit(SampleRequest{Seed: int64(100 + i)}, "beta", PriorityBatch); err != nil {
			t.Fatal(err)
		}
		if _, _, err := q.Submit(SampleRequest{Seed: int64(200 + i)}, "gamma", PriorityBatch); err != nil {
			t.Fatal(err)
		}
	}
	leases := drain(t, q, 26)
	// All of beta's and gamma's jobs must be served within the first
	// three rotations (3 clients * 3 rounds = 9 dequeues), despite the
	// hog's 20-deep backlog.
	servedBy := map[string]int{}
	for _, l := range leases[:9] {
		servedBy[l.Client]++
	}
	if servedBy["beta"] != 3 || servedBy["gamma"] != 3 {
		t.Fatalf("first 9 services = %v; round-robin should finish beta and gamma in 3 rotations", servedBy)
	}
}

// TestQueueFairnessRandomized drives random multi-client traffic and
// asserts the two scheduling invariants hold on every dequeue: per
// client FIFO, and the round-robin starvation bound — while a client
// has pending jobs, no other client is served twice before it gets a
// turn.
func TestQueueFairnessRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewJobQueue(4096, time.Minute)
	clients := []string{"a", "b", "c", "d", "e"}
	nextSeed := map[string]int64{}
	submitted := map[string]int{}
	for i := 0; i < 400; i++ {
		c := clients[rng.Intn(len(clients))]
		if _, _, err := q.Submit(SampleRequest{QUBO: c, Seed: nextSeed[c]}, c, PriorityBatch); err != nil {
			t.Fatal(err)
		}
		nextSeed[c]++
		submitted[c]++
	}
	lastServed := map[string]int64{}
	remaining := map[string]int{}
	servedSince := map[string]map[string]int{} // per waiting client: serves of others since its last turn
	for c, n := range submitted {
		lastServed[c] = -1
		remaining[c] = n
		servedSince[c] = map[string]int{}
	}
	leases := drain(t, q, 400)
	for i, l := range leases {
		// FIFO within the client's stream.
		if l.Req.Seed != lastServed[l.Client]+1 {
			t.Fatalf("dequeue %d: client %s got seed %d after %d (FIFO violated)",
				i, l.Client, l.Req.Seed, lastServed[l.Client])
		}
		lastServed[l.Client] = l.Req.Seed
		remaining[l.Client]--
		servedSince[l.Client] = map[string]int{}
		for c, n := range remaining {
			if n <= 0 || c == l.Client {
				continue
			}
			servedSince[c][l.Client]++
			if servedSince[c][l.Client] > 1 {
				t.Fatalf("dequeue %d: client %s served twice while %s still had pending jobs (starvation)",
					i, l.Client, c)
			}
		}
	}
}

func TestQueueTTLExpiry(t *testing.T) {
	q := NewJobQueue(8, time.Minute)
	now := time.Now()
	q.now = func() time.Time { return now }

	id, _, err := q.Submit(SampleRequest{}, "alice", PriorityBatch)
	if err != nil {
		t.Fatal(err)
	}
	lease := drain(t, q, 1)[0]
	q.Complete(lease.ID, &SampleResponse{Samples: []WireSample{{X: "1", Energy: -1, Occurrences: 1}}})

	st, ok := q.Get(id)
	if !ok || st.State != JobDone || st.Result == nil {
		t.Fatalf("finished job not claimable: %+v ok=%v", st, ok)
	}
	// Claimable right up to the TTL boundary…
	now = now.Add(time.Minute - time.Nanosecond)
	if _, ok := q.Get(id); !ok {
		t.Fatal("result expired before its TTL")
	}
	// …and gone after it.
	now = now.Add(2 * time.Nanosecond)
	if _, ok := q.Get(id); ok {
		t.Fatal("result still claimable past its TTL")
	}
	stats := q.Stats()
	if stats.Expired != 1 || stats.Tracked != 0 {
		t.Fatalf("stats after expiry = %+v, want 1 expired / 0 tracked", stats)
	}
}

// TestQueueBoundedMemory drives far more work through the queue than
// its bounds and asserts the job table never outgrows them: admission
// control sheds submissions past MaxQueued, and the retention bound
// drops the oldest unclaimed results past MaxRetained even though the
// TTL has not elapsed.
func TestQueueBoundedMemory(t *testing.T) {
	q := NewJobQueue(8, time.Hour) // TTL never elapses in this test
	q.MaxRetained = 16
	now := time.Now()
	q.now = func() time.Time { return now }

	var admitted, shed int
	for round := 0; round < 30; round++ {
		// Flood well past the admission bound.
		for i := 0; i < 12; i++ {
			_, _, err := q.Submit(SampleRequest{Seed: int64(round*100 + i)}, fmt.Sprintf("c%d", i%3), PriorityBatch)
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, ErrQueueFull):
				shed++
			default:
				t.Fatal(err)
			}
			if st := q.Stats(); st.Queued > q.MaxQueued {
				t.Fatalf("queued %d exceeds bound %d", st.Queued, q.MaxQueued)
			}
		}
		// Drain and finish everything that was admitted this round.
		depth := q.Stats().Queued
		for _, l := range drain(t, q, depth) {
			q.Complete(l.ID, &SampleResponse{})
		}
		if st := q.Stats(); st.Tracked > q.MaxQueued+q.MaxRetained {
			t.Fatalf("tracked %d jobs; memory unbounded (queued bound %d, retained bound %d)",
				st.Tracked, q.MaxQueued, q.MaxRetained)
		}
	}
	if shed == 0 {
		t.Fatal("admission control never engaged")
	}
	st := q.Stats()
	if st.Retained > q.MaxRetained {
		t.Fatalf("retained %d > bound %d", st.Retained, q.MaxRetained)
	}
	if st.Expired == 0 {
		t.Fatal("retention bound never dropped an unclaimed result")
	}
	if admitted != 30*8 {
		t.Fatalf("admitted %d, want %d (every round should fill the queue exactly)", admitted, 30*8)
	}
}

// TestQueuePerClientBound: one client cannot consume the whole queue's
// admission budget.
func TestQueuePerClientBound(t *testing.T) {
	q := NewJobQueue(64, time.Minute)
	q.MaxPerClient = 4
	for i := 0; i < 4; i++ {
		if _, _, err := q.Submit(SampleRequest{Seed: int64(i)}, "hog", PriorityBatch); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if _, _, err := q.Submit(SampleRequest{Seed: 4}, "hog", PriorityBatch); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("hog's 5th submission = %v, want ErrQueueFull", err)
	}
	// The queue still has room for everyone else.
	if _, _, err := q.Submit(SampleRequest{Seed: 5}, "beta", PriorityBatch); err != nil {
		t.Fatalf("beta blocked by hog's bound: %v", err)
	}
}

func TestQueueCancel(t *testing.T) {
	q := NewJobQueue(8, time.Minute)
	// Cancel a queued job: it never reaches a worker.
	idQ, _, _ := q.Submit(SampleRequest{Seed: 1}, "a", PriorityBatch)
	idRun, _, _ := q.Submit(SampleRequest{Seed: 2}, "a", PriorityBatch)
	if !q.Cancel(idQ) {
		t.Fatal("Cancel(queued) = false")
	}
	if st, ok := q.Get(idQ); !ok || st.State != JobCanceled {
		t.Fatalf("canceled queued job state = %+v ok=%v", st, ok)
	}
	lease := drain(t, q, 1)[0]
	if lease.ID != idRun {
		t.Fatalf("dequeued %s, want %s (canceled job leaked to a worker)", lease.ID, idRun)
	}
	// Cancel a running job: its context is canceled, its observer sees
	// the cancellation once, and the worker's late settle is dropped.
	ctx, cancel := context.WithCancel(context.Background())
	var observed []JobState
	q.attach(lease.ID, cancel, func(st JobState) { observed = append(observed, st) })
	if !q.Cancel(lease.ID) {
		t.Fatal("Cancel(running) = false")
	}
	if ctx.Err() == nil {
		t.Fatal("running job's context not canceled")
	}
	q.Complete(lease.ID, &SampleResponse{}) // late worker settle
	if st, _ := q.Get(lease.ID); st.State != JobCanceled || st.Result != nil {
		t.Fatalf("late settle overwrote cancellation: %+v", st)
	}
	if len(observed) != 1 || observed[0] != JobCanceled {
		t.Fatalf("observed outcomes = %v, want [canceled]", observed)
	}
	// Terminal jobs cannot be re-canceled.
	if q.Cancel(lease.ID) {
		t.Fatal("Cancel(terminal) = true")
	}
}

func TestQueueDequeueBlocksAndWakes(t *testing.T) {
	q := NewJobQueue(8, time.Minute)
	got := make(chan JobLease, 1)
	go func() {
		lease, err := q.Dequeue(context.Background())
		if err != nil {
			t.Errorf("Dequeue: %v", err)
		}
		got <- lease
	}()
	// Give the consumer a moment to block, then submit.
	time.Sleep(10 * time.Millisecond)
	id, _, err := q.Submit(SampleRequest{}, "a", PriorityInteractive)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case lease := <-got:
		if lease.ID != id {
			t.Fatalf("woke with %s, want %s", lease.ID, id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dequeue never woke after Submit")
	}
	// A canceled context unblocks an idle consumer.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := q.Dequeue(ctx)
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Dequeue after cancel = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dequeue ignored context cancellation")
	}
}

func TestQueueRetryAfterEstimate(t *testing.T) {
	q := NewJobQueue(64, time.Minute)
	now := time.Now()
	q.now = func() time.Time { return now }
	if got := q.RetryAfter(); got != time.Second {
		t.Fatalf("RetryAfter with no history = %v, want 1s", got)
	}
	// Feed a steady 2s completion spacing through the ring.
	for i := 0; i < 6; i++ {
		id, _, err := q.Submit(SampleRequest{}, "a", PriorityBatch)
		if err != nil {
			t.Fatal(err)
		}
		lease := drain(t, q, 1)[0]
		if lease.ID != id {
			t.Fatal("lease mismatch")
		}
		now = now.Add(2 * time.Second)
		q.Complete(id, &SampleResponse{})
	}
	// Leave 5 queued: the estimate is depth * spacing = ~10s.
	for i := 0; i < 5; i++ {
		if _, _, err := q.Submit(SampleRequest{Seed: int64(100 + i)}, "b", PriorityBatch); err != nil {
			t.Fatal(err)
		}
	}
	got := q.RetryAfter()
	if got < 8*time.Second || got > 12*time.Second {
		t.Fatalf("RetryAfter = %v, want ~10s (5 queued x 2s spacing)", got)
	}
	// Deep queues clamp at a minute.
	for i := 0; i < 40; i++ {
		if _, _, err := q.Submit(SampleRequest{Seed: int64(200 + i)}, "c", PriorityBatch); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.RetryAfter(); got != time.Minute {
		t.Fatalf("RetryAfter deep = %v, want clamped 60s", got)
	}
}

// TestQueueConcurrentProducersConsumers hammers the queue from many
// goroutines; exists to run under -race and to check conservation: every
// admitted job is settled exactly once and the final occupancy is empty.
func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewJobQueue(128, time.Hour)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const producers, perProducer, consumers = 4, 50, 3
	var admitted, settled, shed int64
	var mu sync.Mutex
	var prodWG, consWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			client := fmt.Sprintf("client-%d", p)
			for i := 0; i < perProducer; i++ {
				_, _, err := q.Submit(SampleRequest{Seed: int64(p*1000 + i)}, client, Priority(i%3))
				mu.Lock()
				if err == nil {
					admitted++
				} else if errors.Is(err, ErrQueueFull) {
					shed++
				} else {
					t.Errorf("Submit: %v", err)
				}
				mu.Unlock()
			}
		}(p)
	}
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		consWG.Add(1)
		go func() {
			defer consWG.Done()
			for {
				lease, err := q.Dequeue(ctx)
				if err != nil {
					return
				}
				q.Complete(lease.ID, &SampleResponse{})
				mu.Lock()
				settled++
				mu.Unlock()
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	prodWG.Wait()
	// Wait for the consumers to drain the backlog.
	deadline := time.Now().Add(20 * time.Second)
	for q.Stats().Queued > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel() // release idle consumers
	close(done)
	consWG.Wait()

	st := q.Stats()
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("queue not drained: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if settled != admitted {
		t.Fatalf("settled %d of %d admitted jobs", settled, admitted)
	}
	if st.Retained != int(admitted) {
		t.Fatalf("retained %d, want %d (TTL should not fire here)", st.Retained, admitted)
	}
}

// TestQueueCoalescing pins the cross-request coalescing contract:
// byte-identical submissions attach to the in-flight primary instead of
// occupying queue capacity, exactly one execution happens, and its
// result fans out to every attached waiter.
func TestQueueCoalescing(t *testing.T) {
	q := NewJobQueue(8, time.Minute)
	req := SampleRequest{QUBO: "model", Reads: 8, Seed: 42}

	primary, coalesced, err := q.Submit(req, "a", PriorityBatch)
	if err != nil || coalesced {
		t.Fatalf("primary submit = (%v, %v), want fresh admission", coalesced, err)
	}
	var followers []string
	for i := 0; i < 3; i++ {
		id, coalesced, err := q.Submit(req, fmt.Sprintf("c%d", i), PriorityBatch)
		if err != nil {
			t.Fatalf("follower submit %d: %v", i, err)
		}
		if !coalesced {
			t.Fatalf("follower submit %d not coalesced", i)
		}
		if id == primary {
			t.Fatalf("follower %d shares the primary's ID", i)
		}
		followers = append(followers, id)
	}
	// Followers consume no queue capacity.
	if d := q.Depth(); d != 1 {
		t.Fatalf("depth = %d, want 1 (followers hold no slot)", d)
	}
	if st := q.Stats(); st.Coalesced != 3 {
		t.Fatalf("stats.Coalesced = %d, want 3", st.Coalesced)
	}
	// A different seed is a different request: no coalescing.
	if _, coalesced, err := q.Submit(SampleRequest{QUBO: "model", Reads: 8, Seed: 43}, "a", PriorityBatch); err != nil || coalesced {
		t.Fatalf("distinct-seed submit = (%v, %v), want independent admission", coalesced, err)
	}

	// Exactly one lease serves all four coalesced jobs.
	lease := drain(t, q, 1)[0]
	if lease.ID != primary {
		t.Fatalf("leased %s, want primary %s", lease.ID, primary)
	}
	resp := &SampleResponse{Samples: []WireSample{{X: "10", Energy: -2, Occurrences: 1}}}
	q.Complete(lease.ID, resp)
	for _, id := range append([]string{primary}, followers...) {
		st, ok := q.Get(id)
		if !ok || st.State != JobDone {
			t.Fatalf("job %s after settle = %+v ok=%v, want done", id, st, ok)
		}
		if len(st.Result.Samples) != 1 || st.Result.Samples[0].X != "10" {
			t.Fatalf("job %s result = %+v, want the primary's samples", id, st.Result)
		}
	}
}

// TestQueueCoalescingFailureFanOut: a failing primary fails every
// follower with the same code, so no waiter hangs.
func TestQueueCoalescingFailureFanOut(t *testing.T) {
	q := NewJobQueue(8, time.Minute)
	req := SampleRequest{QUBO: "m", Seed: 7}
	primary, _, _ := q.Submit(req, "a", PriorityBatch)
	follower, coalesced, _ := q.Submit(req, "b", PriorityBatch)
	if !coalesced {
		t.Fatal("second submit not coalesced")
	}
	lease := drain(t, q, 1)[0]
	q.Fail(lease.ID, 503, "sampler died")
	for _, id := range []string{primary, follower} {
		st, _ := q.Get(id)
		if st.State != JobFailed || st.ErrCode != 503 || st.ErrMsg != "sampler died" {
			t.Fatalf("job %s = %+v, want failed/503", id, st)
		}
	}
}

// TestQueueCoalescingCancelFollower: canceling a follower detaches only
// it; the primary still runs and the other followers still get results.
func TestQueueCoalescingCancelFollower(t *testing.T) {
	q := NewJobQueue(8, time.Minute)
	req := SampleRequest{QUBO: "m", Seed: 9}
	primary, _, _ := q.Submit(req, "a", PriorityBatch)
	f1, _, _ := q.Submit(req, "b", PriorityBatch)
	f2, _, _ := q.Submit(req, "c", PriorityBatch)
	if !q.Cancel(f1) {
		t.Fatal("Cancel(follower) = false")
	}
	if st, _ := q.Get(f1); st.State != JobCanceled {
		t.Fatalf("canceled follower = %+v", st)
	}
	lease := drain(t, q, 1)[0]
	q.Complete(lease.ID, &SampleResponse{})
	if st, _ := q.Get(primary); st.State != JobDone {
		t.Fatalf("primary = %+v, want done", st)
	}
	if st, _ := q.Get(f2); st.State != JobDone {
		t.Fatalf("surviving follower = %+v, want done", st)
	}
	if st, _ := q.Get(f1); st.State != JobCanceled {
		t.Fatalf("canceled follower resurrected: %+v", st)
	}
}

// TestQueueCoalescingPromotion: canceling the primary promotes the
// oldest live follower into the queue, so remaining waiters still get
// exactly one execution — whether the primary was queued or running.
func TestQueueCoalescingPromotion(t *testing.T) {
	t.Run("queued primary", func(t *testing.T) {
		q := NewJobQueue(8, time.Minute)
		req := SampleRequest{QUBO: "m", Seed: 11}
		primary, _, _ := q.Submit(req, "a", PriorityBatch)
		f1, _, _ := q.Submit(req, "b", PriorityBatch)
		f2, _, _ := q.Submit(req, "c", PriorityBatch)
		if !q.Cancel(primary) {
			t.Fatal("Cancel(primary) = false")
		}
		if d := q.Depth(); d != 1 {
			t.Fatalf("depth after promotion = %d, want 1", d)
		}
		lease := drain(t, q, 1)[0]
		if lease.ID != f1 {
			t.Fatalf("leased %s, want promoted follower %s", lease.ID, f1)
		}
		q.Complete(lease.ID, &SampleResponse{})
		if st, _ := q.Get(f2); st.State != JobDone {
			t.Fatalf("transferred follower = %+v, want done", st)
		}
		if st, _ := q.Get(primary); st.State != JobCanceled {
			t.Fatalf("canceled primary = %+v", st)
		}
	})
	t.Run("running primary", func(t *testing.T) {
		q := NewJobQueue(8, time.Minute)
		req := SampleRequest{QUBO: "m", Seed: 13}
		primary, _, _ := q.Submit(req, "a", PriorityBatch)
		f1, _, _ := q.Submit(req, "b", PriorityBatch)
		lease := drain(t, q, 1)[0]
		ctx, cancel := context.WithCancel(context.Background())
		q.attach(lease.ID, cancel, func(JobState) {})
		if !q.Cancel(primary) {
			t.Fatal("Cancel(running primary) = false")
		}
		if ctx.Err() == nil {
			t.Fatal("running primary's context not canceled")
		}
		// The follower re-enters the queue as its own job.
		lease2 := drain(t, q, 1)[0]
		if lease2.ID != f1 {
			t.Fatalf("re-leased %s, want promoted follower %s", lease2.ID, f1)
		}
		q.Complete(lease2.ID, &SampleResponse{})
		if st, _ := q.Get(f1); st.State != JobDone {
			t.Fatalf("promoted follower = %+v, want done", st)
		}
	})
}

// TestQueueCoalescingCloseCancelsFollowers: Close must cancel followers
// without corrupting the queued count (they hold no class slot).
func TestQueueCoalescingCloseCancelsFollowers(t *testing.T) {
	q := NewJobQueue(8, time.Minute)
	req := SampleRequest{QUBO: "m", Seed: 17}
	primary, _, _ := q.Submit(req, "a", PriorityBatch)
	follower, _, _ := q.Submit(req, "b", PriorityBatch)
	q.Close()
	for _, id := range []string{primary, follower} {
		if st, _ := q.Get(id); st.State != JobCanceled {
			t.Fatalf("job %s after Close = %+v, want canceled", id, st)
		}
	}
	if st := q.Stats(); st.Queued != 0 {
		t.Fatalf("queued after Close = %d, want 0", st.Queued)
	}
}

// TestQueueCoalescingPriorityIsolation: coalescing never crosses
// priority classes — an interactive submission must not ride a bulk
// job's (much later) execution.
func TestQueueCoalescingPriorityIsolation(t *testing.T) {
	q := NewJobQueue(8, time.Minute)
	req := SampleRequest{QUBO: "m", Seed: 19}
	if _, coalesced, _ := q.Submit(req, "a", PriorityBulk); coalesced {
		t.Fatal("first submit coalesced")
	}
	if _, coalesced, err := q.Submit(req, "a", PriorityInteractive); err != nil || coalesced {
		t.Fatalf("cross-priority submit = (%v, %v), want independent admission", coalesced, err)
	}
	if d := q.Depth(); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
}

// TestQueueObserverRunsBeforeWatchersWake pins the order the job API's
// outcome metric relies on: a running job's observer is told its
// outcome before the settling transition wakes any watcher, so a client
// whose long-poll returns already sees the job counted. The observer of
// a job canceled before attach is told at once.
func TestQueueObserverRunsBeforeWatchersWake(t *testing.T) {
	q := NewJobQueue(8, time.Minute)
	for _, tc := range []struct {
		name   string
		settle func(id string)
		want   JobState
	}{
		{"complete", func(id string) { q.Complete(id, &SampleResponse{}) }, JobDone},
		{"fail", func(id string) { q.Fail(id, 503, "sampler died") }, JobFailed},
		{"cancel", func(id string) { q.Cancel(id) }, JobCanceled},
	} {
		id, _, _ := q.Submit(SampleRequest{Seed: int64(len(tc.name))}, "a", PriorityBatch)
		lease := drain(t, q, 1)[0]
		_, changed, _ := q.Watch(id)
		var observed []JobState
		q.attach(lease.ID, func() {}, func(st JobState) {
			select {
			case <-changed:
				t.Errorf("%s: watcher woke before the outcome was observed", tc.name)
			default:
			}
			observed = append(observed, st)
		})
		tc.settle(id)
		<-changed
		if len(observed) != 1 || observed[0] != tc.want {
			t.Errorf("%s: observed %v, want [%v]", tc.name, observed, tc.want)
		}
	}

	id, _, _ := q.Submit(SampleRequest{Seed: 99}, "a", PriorityBatch)
	drain(t, q, 1)
	q.Cancel(id)
	var observed []JobState
	q.attach(id, func() {}, func(st JobState) { observed = append(observed, st) })
	if len(observed) != 1 || observed[0] != JobCanceled {
		t.Errorf("attach after cancel: observed %v, want [canceled]", observed)
	}
}
