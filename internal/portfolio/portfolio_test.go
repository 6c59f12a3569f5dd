package portfolio

// Race-semantics tests: winner priority (definitive > primary >
// advisory), loser cancellation, the leak-free teardown contract, and
// the all-fail error path. Arms here are hand-built stubs so arrival
// order is controlled; the integration of real samplers is covered by
// arms_test.go and the root package's differential suite.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/qubo"
)

// stubSet builds a one-sample set with the given energy.
func stubSet(energy float64) *anneal.SampleSet {
	return anneal.Aggregate([]anneal.Sample{{X: []qubo.Bit{1}, Energy: energy, Occurrences: 1}})
}

// blockingArm blocks until its context is canceled, then reports the
// cancellation. It stands in for a slow loser.
func blockingArm(kind ArmKind) Arm {
	return Arm{
		Kind: kind,
		Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
}

func TestRaceDefinitiveWinsOverEarlierPrimary(t *testing.T) {
	// Both arms complete instantly, in whichever order the scheduler
	// picks. The winner-priority rule (definitive > primary) makes the
	// outcome deterministic anyway: the exact arm's certificate must be
	// returned even when the SA arm's result is drained first.
	arms := []Arm{
		{
			Kind:       ArmExact,
			Definitive: true,
			Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
				return stubSet(-3), nil
			},
		},
		{
			Kind: ArmColdSA,
			Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
				return stubSet(-1), nil
			},
		},
	}
	o, err := Race(context.Background(), arms)
	if err != nil {
		t.Fatal(err)
	}
	if o.Winner != ArmExact || !o.Proven {
		t.Fatalf("winner = %s proven=%v, want exact/proven", KindName(o.Winner), o.Proven)
	}
	if o.Set.Best().Energy != -3 {
		t.Fatalf("winner energy = %v, want the exact arm's -3", o.Set.Best().Energy)
	}
}

func TestRacePrimaryWinCancelsLosers(t *testing.T) {
	arms := []Arm{
		{
			Kind: ArmColdSA,
			Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
				return stubSet(-2), nil
			},
		},
		blockingArm(ArmTempering),
		blockingArm(ArmScalarSA),
	}
	o, err := Race(context.Background(), arms)
	if err != nil {
		t.Fatal(err)
	}
	if o.Winner != ArmColdSA {
		t.Fatalf("winner = %s, want cold_sa", KindName(o.Winner))
	}
	if o.Canceled != 2 {
		t.Fatalf("canceled = %d, want 2", o.Canceled)
	}
	for _, rep := range o.Arms {
		if rep.Kind != ArmColdSA && rep.Status != ArmCanceled {
			t.Fatalf("loser %s status = %s, want canceled", KindName(rep.Kind), rep.Status)
		}
	}
}

func TestRaceAdvisoryCannotWinUnproven(t *testing.T) {
	// The advisory arm returns instantly; the primary takes visibly
	// longer. The advisory result must wait for the primary.
	arms := []Arm{
		{
			Kind:     ArmDescent,
			Advisory: true,
			Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
				return stubSet(-9), nil // unproven: must not win
			},
		},
		{
			Kind: ArmColdSA,
			Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
				time.Sleep(20 * time.Millisecond)
				return stubSet(-1), nil
			},
		},
	}
	o, err := Race(context.Background(), arms)
	if err != nil {
		t.Fatal(err)
	}
	if o.Winner != ArmColdSA {
		t.Fatalf("winner = %s, want the primary despite the advisory finishing first", KindName(o.Winner))
	}
}

func TestRaceAdvisoryProvenSettlesInstantly(t *testing.T) {
	start := time.Now()
	arms := []Arm{
		{
			Kind:     ArmDescent,
			Advisory: true,
			Run: func(ctx context.Context, tl *Telemetry) (*anneal.SampleSet, error) {
				tl.Proven = true
				return stubSet(-4), nil
			},
		},
		blockingArm(ArmColdSA),
	}
	o, err := Race(context.Background(), arms)
	if err != nil {
		t.Fatal(err)
	}
	if o.Winner != ArmDescent || !o.Proven {
		t.Fatalf("winner = %s proven=%v, want proven descent", KindName(o.Winner), o.Proven)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("race took %v; a proven advisory should settle it instantly", elapsed)
	}
}

func TestRaceAdvisoryFallbackWhenPrimariesFail(t *testing.T) {
	arms := []Arm{
		{
			Kind: ArmColdSA,
			Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
				return nil, errors.New("kernel exploded")
			},
		},
		{
			Kind:     ArmDescent,
			Advisory: true,
			Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
				return stubSet(-1), nil
			},
		},
	}
	o, err := Race(context.Background(), arms)
	if err != nil {
		t.Fatal(err)
	}
	if o.Winner != ArmDescent {
		t.Fatalf("winner = %s, want the advisory fallback", KindName(o.Winner))
	}
}

func TestRaceAllFail(t *testing.T) {
	arms := []Arm{
		{Kind: ArmColdSA, Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
			return nil, errors.New("boom-cold")
		}},
		{Kind: ArmTempering, Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
			return nil, errors.New("boom-pt")
		}},
	}
	_, err := Race(context.Background(), arms)
	if err == nil {
		t.Fatal("Race with all arms failing returned nil error")
	}
	for _, frag := range []string{"boom-cold", "boom-pt"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
	if _, err := Race(context.Background(), nil); !errors.Is(err, ErrNoArms) {
		t.Fatalf("empty race = %v, want ErrNoArms", err)
	}
}

func TestRaceParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := Race(ctx, []Arm{blockingArm(ArmColdSA), blockingArm(ArmTempering)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("race under canceled parent = %v, want context.Canceled", err)
	}
}

func TestRaceEmptySetIsFailure(t *testing.T) {
	arms := []Arm{
		{Kind: ArmColdSA, Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
			return anneal.Aggregate(nil), nil
		}},
		{Kind: ArmScalarSA, Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
			return stubSet(-1), nil
		}},
	}
	o, err := Race(context.Background(), arms)
	if err != nil {
		t.Fatal(err)
	}
	if o.Winner != ArmScalarSA {
		t.Fatalf("winner = %s; an empty set must not win", KindName(o.Winner))
	}
	if o.Arms[0].Status != ArmFailed {
		t.Fatalf("empty-set arm status = %s, want failed", o.Arms[0].Status)
	}
}

func TestRaceDelayedArmNeverRunsWhenSettled(t *testing.T) {
	var ran atomic.Bool
	arms := []Arm{
		{Kind: ArmColdSA, Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
			return stubSet(-1), nil
		}},
		{Kind: ArmTempering, Delay: time.Hour, Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
			ran.Store(true)
			return stubSet(-2), nil
		}},
	}
	o, err := Race(context.Background(), arms)
	if err != nil {
		t.Fatal(err)
	}
	if o.Winner != ArmColdSA {
		t.Fatalf("winner = %s", KindName(o.Winner))
	}
	if ran.Load() {
		t.Fatal("staggered backup ran even though the race settled first")
	}
	// The delayed arm counts as canceled, not failed.
	if o.Arms[1].Status != ArmCanceled {
		t.Fatalf("delayed arm status = %s, want canceled", o.Arms[1].Status)
	}
}

// A backup whose delay expires while the definitive arm is still busy
// must not start once that arm has finished: on one P the timer's
// goroutine can be scheduled before the collector, so the finishing
// arm cancels the race itself.
func TestRaceDelayedArmNotStartedAfterSettlingArm(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for trial := 0; trial < 20; trial++ {
		// A host pause can get the busy arm preempted, letting the backup
		// start before the race settles; only running after the exact arm
		// finished, on a race nobody cancelled, is a failure.
		var done, ran atomic.Bool
		arms := []Arm{
			{Kind: ArmExact, Definitive: true, Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
				// Busy past the backup's delay without yielding.
				for deadline := time.Now().Add(2 * time.Millisecond); time.Now().Before(deadline); {
				}
				done.Store(true)
				return stubSet(-3), nil
			}},
			{Kind: ArmTempering, Delay: 100 * time.Microsecond, Run: func(ctx context.Context, _ *Telemetry) (*anneal.SampleSet, error) {
				ran.Store(done.Load() && ctx.Err() == nil)
				<-ctx.Done()
				return nil, ctx.Err()
			}},
		}
		o, err := Race(context.Background(), arms)
		if err != nil {
			t.Fatal(err)
		}
		if o.Winner != ArmExact {
			t.Fatalf("trial %d: winner = %s", trial, KindName(o.Winner))
		}
		if ran.Load() {
			t.Fatalf("trial %d: the backup ran after the exact arm settled the race", trial)
		}
	}
}

// TestRaceLeavesNoGoroutines pins the teardown contract: after a Race
// returns — winner, loser cancellations and all — the goroutine count
// returns to its baseline, so losing arms hold no PackedKernel buffers
// and no goroutines leak. Run under -race in make check.
func TestRaceLeavesNoGoroutines(t *testing.T) {
	// Warm up the runtime (timer goroutines etc.) before baselining.
	for i := 0; i < 3; i++ {
		runRealRace(t, int64(1000+i))
	}
	runtime.GC()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		runRealRace(t, int64(i))
	}
	// Allow canceled samplers a moment to unwind, with retries: the
	// count is noisy (GC workers, timer wheel), so poll for return to
	// within a small slack of the baseline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: baseline %d, now %d after 20 races; leaked arms?\n%s",
				baseline, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runRealRace races the full default arm set on a real (hard-ish) shard
// so cancellation exercises the actual sampler unwind paths.
func runRealRace(t *testing.T, seed int64) {
	t.Helper()
	c := testShard(24, seed)
	arms, _ := BuildArms(Config{Compiled: c, Reads: 32, Sweeps: 400, Seed: seed})
	o, err := Race(context.Background(), arms)
	if err != nil {
		t.Fatalf("race(seed=%d): %v", seed, err)
	}
	if o.Set == nil || o.Set.Len() == 0 {
		t.Fatalf("race(seed=%d): empty winner set", seed)
	}
}

// testShard builds a connected n-variable spin-glass-like QUBO outside
// the exact arm's reach, so annealing arms do real work.
func testShard(n int, seed int64) *qubo.Compiled {
	m := qubo.New(n)
	s := uint64(seed)*2862933555777941757 + 3037000493
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(int64(s>>33)%7-3) / 2
	}
	for i := 0; i < n; i++ {
		m.AddLinear(i, next())
		m.AddQuadratic(i, (i+1)%n, next())
		if i+5 < n {
			m.AddQuadratic(i, i+5, next())
		}
	}
	return m.Compile()
}
