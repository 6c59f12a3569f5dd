package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"time"

	"qsmt"
	"qsmt/internal/anneal"
	"qsmt/internal/obs"
	"qsmt/internal/qubo"
	"qsmt/internal/remote"
	"qsmt/internal/smtlib"
)

// runner is one freshly built program instance for one pass over the op
// list. do runs an op through the real entry point; replay re-runs its
// input stage by stage (traced runs only); counters reads the program's
// own counters.
type runner interface {
	do(ctx context.Context, o *op) outcome
	replay(id int, o *op, parent int64)
	counters() counters
	close() error
}

// outcome is the checked result of one op.
type outcome struct {
	decided []bool   // per instance: correct definite verdict
	wrong   []string // wrong verdicts; any entry fails the run
	failed  error    // an error that is not a verdict
	// attempts and phase times of the solver calls this op made, where
	// the result carries them (successful calls).
	calls, retried, okCalls int
	selfNanos               int64
}

func (o *outcome) add(in instance, decided bool, wrong string) {
	o.decided = append(o.decided, decided)
	if wrong != "" {
		o.wrong = append(o.wrong, fmt.Sprintf("%s: %s", in.family, wrong))
	}
}

// judge checks one solver verdict against the instance and its oracle
// label: a sat answer must carry a witness passing the constraint's own
// Check on an instance the oracle does not label unsat; an unsat answer
// is decided only on an oracle-unsat instance and wrong on an oracle-sat
// one; unknown (no model found) is undecided.
func judge(o *outcome, in instance, w *qsmt.Witness, err error) {
	switch {
	case err == nil:
		if cerr := in.hard.Check(*w); cerr != nil {
			o.add(in, false, "witness fails Check: "+cerr.Error())
		} else if in.label == labelUnsat {
			o.add(in, false, "sat on an oracle-unsat instance")
		} else {
			o.add(in, true, "")
		}
	case errors.Is(err, qsmt.ErrUnsatisfiable):
		switch in.label {
		case labelSat:
			o.add(in, false, "unsat on an oracle-sat instance")
		case labelUnsat:
			o.add(in, true, "")
		default:
			o.add(in, false, "")
		}
	case errors.Is(err, qsmt.ErrNoModel):
		o.add(in, false, "")
	default:
		o.add(in, false, "")
		o.failed = err
	}
}

// noteCall folds one solver call's attempt count and loop overhead (the
// call's elapsed time minus its Compile, Presolve, Sample and
// DecodeVerify phases) into the outcome. Failed calls carry no result;
// they spend the whole retry budget unless proved unsat.
func (o *outcome) noteCall(res *qsmt.Result, err error) {
	o.calls++
	if err != nil {
		if !errors.Is(err, qsmt.ErrUnsatisfiable) {
			o.retried++
		}
		return
	}
	if res.Attempts > 1 {
		o.retried++
	}
	o.okCalls++
	st := res.Stats
	o.selfNanos += int64(res.Elapsed - st.Compile - st.Presolve - st.Sample - st.DecodeVerify)
}

// solverMetrics returns a registry-backed metrics sink for traced runs
// and nil otherwise, so untraced runs record nothing.
func solverMetrics(traced bool) *qsmt.SolverMetrics {
	if !traced {
		return nil
	}
	return qsmt.NewSolverMetrics(obs.NewRegistry())
}

// ---- solve-whole ----

type wholeRunner struct {
	s  *qsmt.Solver
	m  *qsmt.SolverMetrics
	rp *replayer
}

func newWholeRunner(seed int64, tr *tracer) (runner, error) {
	m := solverMetrics(tr != nil)
	return &wholeRunner{
		s:  qsmt.NewSolver(&qsmt.Options{Seed: seed, Metrics: m}),
		m:  m,
		rp: &replayer{tr: tr, seed: seed},
	}, nil
}

func (r *wholeRunner) do(ctx context.Context, o *op) outcome {
	var out outcome
	in := o.items[0]
	var res *qsmt.Result
	var err error
	if len(in.soft) > 0 {
		res, err = r.s.OptimizeContext(ctx, []qsmt.Constraint{in.hard}, in.soft)
	} else {
		res, err = r.s.SolveContext(ctx, in.hard)
	}
	out.noteCall(res, err)
	if err == nil {
		judge(&out, in, &res.Witness, nil)
	} else {
		judge(&out, in, nil, err)
	}
	return out
}

func (r *wholeRunner) replay(id int, o *op, parent int64) {
	r.rp.constraint(id, parent, o.items[0].hard)
}

func (r *wholeRunner) counters() counters {
	return counters{solver: r.m, replay: r.rp.acc}
}

func (r *wholeRunner) close() error { return nil }

// ---- batch-shard ----

// batchCacheEntries holds the recurring pool's compiled shards with room
// to spare, while the fresh half of every batch keeps inserting.
const batchCacheEntries = 1024

type batchRunner struct {
	s     *qsmt.Solver
	m     *qsmt.SolverMetrics
	cache *qubo.Cache
	rp    *replayer
}

func newBatchRunner(seed int64, tr *tracer) (runner, error) {
	m := solverMetrics(tr != nil)
	cache := qubo.NewCache(batchCacheEntries)
	return &batchRunner{
		s: qsmt.NewSolver(&qsmt.Options{
			Seed:         seed,
			BatchWorkers: runtime.NumCPU(),
			CompileCache: cache,
			Metrics:      m,
		}),
		m:     m,
		cache: cache,
		// The replay has its own cache, so it cannot warm the real one.
		rp: &replayer{tr: tr, seed: seed, sharded: true, cache: qubo.NewCache(batchCacheEntries)},
	}, nil
}

func (r *batchRunner) do(ctx context.Context, o *op) outcome {
	var out outcome
	cs := make([]qsmt.Constraint, len(o.items))
	for i, in := range o.items {
		cs[i] = in.hard
	}
	br, err := r.s.SolveBatch(ctx, cs)
	if err != nil {
		out.failed = err
		return out
	}
	for i, it := range br.Items {
		out.noteCall(it.Result, it.Err)
		if it.Err == nil {
			judge(&out, o.items[i], &it.Result.Witness, nil)
		} else {
			judge(&out, o.items[i], nil, it.Err)
		}
	}
	return out
}

func (r *batchRunner) replay(id int, o *op, parent int64) {
	for _, in := range o.items {
		r.rp.constraint(id, parent, in.hard)
	}
}

func (r *batchRunner) counters() counters {
	cs := r.cache.Stats()
	return counters{solver: r.m, cache: &cs, replay: r.rp.acc}
}

func (r *batchRunner) close() error { return nil }

// ---- smt-incremental ----

type smtRunner struct {
	it  *smtlib.Interpreter
	m   *qsmt.SolverMetrics
	out bytes.Buffer
	rp  *replayer
}

func newSMTRunner(seed int64, tr *tracer) (runner, error) {
	m := solverMetrics(tr != nil)
	r := &smtRunner{m: m, rp: &replayer{tr: tr, seed: seed, sharded: true}}
	r.it = smtlib.NewInterpreter(qsmt.NewSolver(&qsmt.Options{Seed: seed, Metrics: m}), &r.out)
	r.it.Incremental = true
	return r, nil
}

func (r *smtRunner) do(_ context.Context, o *op) outcome {
	var out outcome
	in := o.items[0]
	r.out.Reset()
	if err := r.it.Execute(o.script); err != nil {
		out.add(in, false, "")
		out.failed = err
		return out
	}
	st, _ := r.it.Status()
	switch st {
	case smtlib.StatusSat:
		w := qsmt.Witness{Kind: qsmt.WitnessString, Str: r.it.Model()["x"].Str}
		judge(&out, in, &w, nil)
	case smtlib.StatusUnsat:
		judge(&out, in, nil, qsmt.ErrUnsatisfiable)
	default:
		judge(&out, in, nil, qsmt.ErrNoModel)
	}
	return out
}

func (r *smtRunner) replay(id int, o *op, parent int64) {
	tr := r.rp.tr
	tr.time("smtlib.ParseScript", id, parent, func() { _, _ = smtlib.ParseScript(o.script) })
	sc, err := smtlib.ParseScript(o.snapshot)
	if err != nil {
		return
	}
	var comp *smtlib.Compilation
	tr.time("smtlib.Compile", id, parent, func() { comp, err = smtlib.Compile(sc) })
	if err != nil {
		return
	}
	for _, p := range comp.Problems {
		switch {
		case p.Pipeline != nil && p.Pipeline.Len() == 1:
			r.rp.constraint(id, parent, p.Pipeline.Generator())
		case p.Single != nil:
			r.rp.constraint(id, parent, p.Single)
		}
	}
}

func (r *smtRunner) counters() counters {
	return counters{solver: r.m, replay: r.rp.acc}
}

func (r *smtRunner) close() error { return nil }

// ---- service-jobs ----

// serviceStack is the smallest annealerd -backends topology, in-process
// over loopback: a job-API front (queue, CAS, Pool) proxying to one
// sampling backend.
type serviceStack struct {
	backend, front *server
	frontSrv       *remote.Server
	metrics        *remote.ServerMetrics
	client         *remote.Client
	stopJobs       context.CancelFunc
	jobsDone       chan struct{}
	rp             *replayer
}

// server is one loopback HTTP server; done closes when Serve returns.
type server struct {
	*http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{Server: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, "http://" + ln.Addr().String(), nil
}

// stop shuts the server down and waits for Serve to return.
func (s *server) stop(ctx context.Context) error {
	err := s.Shutdown(ctx)
	<-s.done
	return err
}

func newServiceRunner(seed int64, tr *tracer) (runner, error) {
	nproc := runtime.NumCPU()
	backendSrv := &remote.Server{Description: "perfbench backend", MaxConcurrent: 2 * nproc}
	backend, backendURL, err := serve(backendSrv.Handler())
	if err != nil {
		return nil, err
	}
	var metrics *remote.ServerMetrics
	if tr != nil {
		metrics = remote.NewServerMetrics(obs.NewRegistry())
	}
	pool := remote.NewPool(backendURL)
	frontSrv := &remote.Server{
		Description: "perfbench front",
		Metrics:     metrics,
		Jobs:        remote.NewJobQueue(remote.DefaultMaxQueued, 0),
		JobWorkers:  nproc,
		CAS:         remote.NewModelCAS(1024),
		NewSampler: func(req remote.SampleRequest) interface {
			Sample(*qubo.Compiled) (*anneal.SampleSet, error)
		} {
			return pool.JobSampler(remote.Job{Reads: req.Reads, Sweeps: req.Sweeps, Seed: req.Seed})
		},
	}
	front, frontURL, err := serve(frontSrv.Handler())
	if err != nil {
		_ = backend.stop(context.Background())
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		frontSrv.ServeJobs(ctx)
	}()
	transport := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	return &serviceStack{
		backend: backend, front: front, frontSrv: frontSrv, metrics: metrics,
		client: &remote.Client{
			BaseURL:    frontURL,
			HTTPClient: &http.Client{Transport: transport, Timeout: time.Minute},
			ClientID:   "perfbench",
		},
		stopJobs: cancel,
		jobsDone: done,
		rp:       &replayer{tr: tr, seed: seed},
	}, nil
}

func (s *serviceStack) do(ctx context.Context, o *op) outcome {
	var out outcome
	in := o.items[0]
	ss, err := s.client.SampleJob(ctx, o.compiled, o.job, remote.PriorityInteractive)
	if err != nil {
		out.add(in, false, "")
		out.failed = err
		return out
	}
	decided, wrong := checkSamples(in, o.compiled, ss)
	out.add(in, decided, wrong)
	return out
}

// checkSamples re-evaluates every returned sample's energy on the
// submitted model (the uncompiled Model, an independent evaluation path)
// and then decodes the lowest-energy samples the way the solver does:
// the job is decided when one of the first 16 passes Check.
func checkSamples(in instance, c *qubo.Compiled, ss *anneal.SampleSet) (decided bool, wrong string) {
	model, err := in.hard.BuildModel()
	if err != nil {
		return false, "rebuilding model: " + err.Error()
	}
	prev := math.Inf(-1)
	for _, smp := range ss.Samples {
		if len(smp.X) != c.N {
			return false, fmt.Sprintf("sample width %d, model has %d variables", len(smp.X), c.N)
		}
		e := model.Energy(smp.X)
		if math.Abs(e-smp.Energy) > 1e-6*math.Max(1, math.Abs(e)) {
			return false, fmt.Sprintf("sample energy %g, model says %g", smp.Energy, e)
		}
		if smp.Energy < prev {
			return false, "samples not sorted by energy"
		}
		prev = smp.Energy
	}
	for k := 0; k < len(ss.Samples) && k < 16; k++ {
		w, err := in.hard.Decode(ss.Samples[k].X)
		if err != nil || in.hard.Check(w) != nil {
			continue
		}
		if in.label == labelUnsat {
			return false, "sample satisfies an oracle-unsat instance"
		}
		return true, ""
	}
	return false, ""
}

func (s *serviceStack) replay(id int, o *op, parent int64) {
	tr := s.rp.tr
	ctx := context.Background()
	tr.time("remote.Client.UploadModel", id, parent, func() { _, _ = s.client.UploadModel(ctx, o.compiled) })
	var jobID string
	var err error
	tr.time("remote.Client.SubmitJob", id, parent, func() {
		jobID, err = s.client.SubmitJob(ctx, o.compiled, o.job, remote.PriorityInteractive)
	})
	if err == nil {
		tr.time("remote.Client.WaitJob", id, parent, func() { _, _ = s.client.WaitJob(ctx, jobID) })
	}
}

func (s *serviceStack) counters() counters {
	return counters{server: s.metrics, retries: s.client.Retries(), replay: s.rp.acc}
}

func (s *serviceStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.front.stop(ctx)
	s.frontSrv.Jobs.Close()
	s.stopJobs()
	<-s.jobsDone
	if berr := s.backend.stop(ctx); err == nil {
		err = berr
	}
	s.client.HTTPClient.CloseIdleConnections()
	return err
}

// counters is a snapshot source for the per-layer metrics.
type counters struct {
	solver  *qsmt.SolverMetrics
	server  *remote.ServerMetrics
	cache   *qubo.CacheStats
	retries int64
	replay  replayAcc
}
