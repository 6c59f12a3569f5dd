// Command qsmt is the solver's command-line front end: it reads an
// SMT-LIB script (from a file or stdin), solves the string constraints by
// QUBO annealing, and prints the check-sat verdicts and models.
//
// Usage:
//
//	qsmt [-seed N] [-reads N] [-sweeps N] [-attempts N] [file.smt2]
//	qsmt -i        # interactive REPL: one command per line, errors are
//	               # reported but do not end the session
//
// With no file argument (and without -i) the script is read from
// standard input. Every check-sat is incremental: a variable whose
// assertions did not change since an earlier check-sat reuses that
// verdict, and a changed one reuses the unchanged QUBO components of
// earlier frames.
//
// Beyond plain QF_S solving, scripts may carry optimization directives:
// (assert-soft term :weight w) adds a weighted soft constraint,
// (minimize (str.len x)) asks for the shortest witness under a length
// bound ((= (str.len x) n) or (<= (str.len x) n)), and
// (get-objectives) reports the achieved objective values after a sat
// check-sat. Soft-carrying problems solve through the MaxSAT/OMT mode:
// hard constraints stay inviolable, soft terms grade the witness.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"qsmt"
	"qsmt/internal/anneal"
	"qsmt/internal/qubo"
	"qsmt/internal/remote"
	"qsmt/internal/smtlib"
)

func main() {
	var (
		seed          = flag.Int64("seed", 1, "annealer root seed")
		reads         = flag.Int("reads", 64, "annealer reads per solve")
		sweeps        = flag.Int("sweeps", 1000, "annealer sweeps per read")
		attempts      = flag.Int("attempts", 4, "verify-retry budget per constraint")
		interactive   = flag.Bool("i", false, "interactive REPL mode")
		cacheSize     = flag.Int("cache", qubo.DefaultCacheCapacity, "compiled-QUBO LRU cache capacity (0 disables)")
		remoteURL     = flag.String("remote", "", "comma-separated base URLs of remote annealer services (see cmd/annealerd); two or more enable failover")
		remoteRetries = flag.Int("remote-retries", remote.DefaultMaxRetries, "retries per sampling job on transient remote failures")
		sampleTimeout = flag.Duration("sample-timeout", 0, "deadline per sampling job (0 = none)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qsmt [flags] [file.smt2]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var sampler qsmt.Sampler = &anneal.SimulatedAnnealer{
		Reads:  *reads,
		Sweeps: *sweeps,
		Seed:   *seed,
	}
	// Every check-sat solves through the tier rule: closed-form
	// components, exact enumeration up to Options.ExactShardVars, and the
	// sampler only for larger components. The local backend drops the
	// explicit annealer when the flags match the solver's own default;
	// custom -reads/-sweeps, -remote and -sample-timeout keep their
	// sampler for those larger components.
	localDefault := *reads == 64 && *sweeps == 1000
	if *remoteURL != "" {
		sampler = buildRemoteSampler(*remoteURL, *reads, *sweeps, *seed, *remoteRetries)
	} else if localDefault && *sampleTimeout == 0 {
		sampler = nil
	}
	if *sampleTimeout > 0 {
		sampler = &deadlineSampler{base: sampler, timeout: *sampleTimeout}
	}
	opts := &qsmt.Options{
		Sampler:     sampler,
		MaxAttempts: *attempts,
		Seed:        *seed,
	}
	if *cacheSize > 0 {
		opts.CompileCache = qubo.NewCache(*cacheSize)
	}
	solver := qsmt.NewSolver(opts)
	interp := smtlib.NewInterpreter(solver, os.Stdout)

	if *interactive {
		repl(interp)
		return
	}

	var src []byte
	var err error
	switch flag.NArg() {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		src, err = os.ReadFile(flag.Arg(0))
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}
	if err := interp.Execute(string(src)); err != nil {
		fail(err)
	}
}

// fail reports err on stderr under one "qsmt:" prefix — the solver's
// own errors already carry it — and exits 1.
func fail(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "qsmt:") {
		msg = "qsmt: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}

// buildRemoteSampler wires one or more annealerd backends: a single URL
// gets a retrying Client, several get a failover Pool. Backends that
// fail the startup health probe are reported; startup aborts only when
// none are healthy.
func buildRemoteSampler(urlList string, reads, sweeps int, seed int64, retries int) qsmt.Sampler {
	var urls []string
	for _, u := range strings.Split(urlList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	newClient := func(u string) *remote.Client {
		return &remote.Client{BaseURL: u, Reads: reads, Sweeps: sweeps, Seed: seed, MaxRetries: retries}
	}
	if len(urls) == 1 {
		client := newClient(urls[0])
		if _, err := client.Health(); err != nil {
			fmt.Fprintf(os.Stderr, "qsmt: remote annealer %s: %v\n", urls[0], err)
			os.Exit(1)
		}
		return client
	}
	pool := &remote.Pool{}
	for _, u := range urls {
		pool.Backends = append(pool.Backends, newClient(u))
	}
	healthy := 0
	for u, err := range pool.CheckHealth(context.Background()) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "qsmt: remote annealer %s unhealthy at startup: %v\n", u, err)
		} else {
			healthy++
		}
	}
	if healthy == 0 {
		fmt.Fprintf(os.Stderr, "qsmt: no healthy remote annealer among %d backends\n", len(urls))
		os.Exit(1)
	}
	return pool
}

// deadlineSampler bounds every sampling job with a timeout, using the
// base sampler's context support when available.
type deadlineSampler struct {
	base    qsmt.Sampler
	timeout time.Duration
}

func (d *deadlineSampler) Sample(c *qubo.Compiled) (*anneal.SampleSet, error) {
	return d.SampleContext(context.Background(), c)
}

func (d *deadlineSampler) SampleContext(ctx context.Context, c *qubo.Compiled) (*anneal.SampleSet, error) {
	ctx, cancel := context.WithTimeout(ctx, d.timeout)
	defer cancel()
	return anneal.SampleWithContext(ctx, d.base, c)
}

// repl reads commands line by line, buffering until parentheses balance
// so multi-line commands work, and keeps the session alive on errors.
func repl(interp *smtlib.Interpreter) {
	fmt.Println("; qsmt interactive mode — enter SMT-LIB commands, (exit) to quit")
	sc := bufio.NewScanner(os.Stdin)
	var buf strings.Builder
	depth := 0
	prompt := func() {
		if depth > 0 {
			fmt.Print("... ")
		} else {
			fmt.Print("> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		buf.WriteString(line)
		buf.WriteByte('\n')
		depth += balance(line)
		if depth > 0 {
			prompt()
			continue
		}
		src := buf.String()
		buf.Reset()
		depth = 0
		if strings.TrimSpace(src) != "" {
			if strings.Contains(src, "(exit)") {
				return
			}
			if err := interp.Execute(src); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
		prompt()
	}
}

// balance returns the parenthesis depth change of a line, ignoring
// parens inside string literals and comments.
func balance(line string) int {
	depth := 0
	inString := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case inString:
			if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == ';':
			return depth // comment to end of line
		case c == '(':
			depth++
		case c == ')':
			depth--
		}
	}
	return depth
}
