package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"qsmt"
	"qsmt/internal/baseline"
	"qsmt/internal/core"
	"qsmt/internal/harness"
	"qsmt/internal/qubo"
	"qsmt/internal/remote"
)

// Op lists are generated from the seed before anything is timed, and each
// run executes the identical list in the same order. Every list is fixed
// by a count of ops, and the family mix is stratified: a fixed template
// of (family, length) slots is repeated and shuffled, and the seed draws
// only the instance contents and the order. Two seeds therefore differ in
// which strings are solved, never in how many ops of each class run.

// label is the oracle verdict for one instance.
type label int

const (
	labelUnknown label = iota // the oracle gave no answer
	labelSat
	labelUnsat
)

// instance is one constraint the program is asked to solve.
type instance struct {
	family string
	hard   qsmt.Constraint
	soft   []qsmt.SoftConstraint // non-empty for optimize ops
	label  label
}

// op is one timed unit of work. Which fields are set depends on the
// workload: solve-whole and service-jobs carry one instance, batch-shard
// carries a batch, smt-incremental carries script text.
type op struct {
	class string // latency class, used for the class-share accounting
	items []instance

	script   string // smt-incremental: the text passed to Execute
	snapshot string // smt-incremental: the full live script, for replay

	compiled *qubo.Compiled // service-jobs: the submitted QUBO
	job      remote.Job     // service-jobs: knobs, with a distinct seed per op
}

// oracle labels instances with the classical CP solver. Its node budget
// keeps labelling fast; instances it cannot settle stay unlabelled.
var oracle = &baseline.CPSolver{MaxNodes: 50_000}

func labelOf(c qsmt.Constraint) label {
	_, err := oracle.Solve(c)
	switch {
	case err == nil:
		return labelSat
	case errors.Is(err, core.ErrUnsatisfiable):
		return labelUnsat
	default:
		return labelUnknown
	}
}

func newInstance(family string, c qsmt.Constraint) instance {
	return instance{family: family, hard: c, label: labelOf(c)}
}

const lower = "abcdefghijklmnopqrstuvwxyz"

// gen draws instance contents. Families from harness.Workload are used
// exactly as it generates them (the regex family included, whose decoded
// witnesses often fail Check; the benchmark shows that defect).
type gen struct {
	rng  *rand.Rand
	hw   *harness.Workload
	turn map[string]int // per-family draw counter, for stratified lengths
}

func newGen(seed int64, stream int64) *gen {
	s := seed*1_000_003 + stream
	return &gen{rng: rand.New(rand.NewSource(s)), hw: harness.NewWorkload(s ^ 0x5bd1e995), turn: map[string]int{}}
}

func (g *gen) word(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = lower[g.rng.Intn(len(lower))]
	}
	return string(b)
}

func (g *gen) letter() byte { return lower[g.rng.Intn(len(lower))] }

func (g *gen) otherLetter(c byte) byte {
	for {
		if d := g.letter(); d != c {
			return d
		}
	}
}

// extension builds one instance of a constructor outside harness.Workload.
func (g *gen) extension(family string, n int) qsmt.Constraint {
	switch family {
	case "prefixof":
		return qsmt.PrefixOf(g.word(1+g.rng.Intn(n/2)), n)
	case "suffixof":
		return qsmt.SuffixOf(g.word(1+g.rng.Intn(n/2)), n)
	case "charat":
		return qsmt.CharAt(g.letter(), g.rng.Intn(n), n)
	case "toupper":
		return qsmt.ToUpper(g.word(n))
	case "tolower":
		return qsmt.ToLower(strings.ToUpper(g.word(n)))
	case "periodic":
		return qsmt.Periodic(2, n)
	case "anystring":
		return qsmt.AnyString(n)
	case "avoid":
		return qsmt.AvoidChars([]byte{g.letter(), g.letter()}, n)
	}
	panic("perfbench: unknown extension family " + family)
}

// conflict builds a conjunction the CP oracle proves unsatisfiable; the
// three shapes take turns.
func (g *gen) conflict(n, turn int) qsmt.Constraint {
	switch turn % 3 {
	case 0:
		p := g.word(2)
		q := string(g.otherLetter(p[0])) + p[1:]
		return qsmt.And(qsmt.PrefixOf(p, n), qsmt.PrefixOf(q, n))
	case 1:
		i := g.rng.Intn(n)
		c := g.letter()
		return qsmt.And(qsmt.CharAt(c, i, n), qsmt.CharAt(g.otherLetter(c), i, n))
	default:
		c := g.letter()
		return qsmt.And(qsmt.Palindrome(n), qsmt.CharAt(c, 0, n), qsmt.CharAt(g.otherLetter(c), n-1, n))
	}
}

// optimize builds an Optimize op: a hard constraint plus a graded soft
// objective; the four (hard, objective) pairings take turns.
func (g *gen) optimize(n, turn int) instance {
	var hard qsmt.Constraint
	if turn%2 == 0 {
		hard = qsmt.PrefixOf(g.word(1+g.rng.Intn(2)), n)
	} else {
		hard = qsmt.Palindrome(n)
	}
	var obj qsmt.Constraint
	if turn/2%2 == 0 {
		obj = qsmt.MinLength(n)
	} else {
		obj = qsmt.MinEditsFrom(g.word(n))
	}
	in := newInstance("optimize", hard)
	in.soft = []qsmt.SoftConstraint{qsmt.Soft(obj, 1)}
	return in
}

// slot is one entry of a stratified template: a family, its latency
// class, a count per template block, and the witness-length range.
type slot struct {
	family string
	class  string
	count  int
	lo, hi int
}

// make draws one instance for a template slot. Lengths take turns over
// the slot's range, so every seed solves the same length mix.
func (g *gen) make(s slot) instance {
	turn := g.turn[s.family]
	g.turn[s.family]++
	n := s.lo + turn%(s.hi-s.lo+1)
	switch s.family {
	case "unsat":
		return newInstance("unsat", g.conflict(n, turn/(s.hi-s.lo+1)))
	case "optimize":
		return g.optimize(n, turn/(s.hi-s.lo+1))
	case "race":
		// A 16-variable component survives presolve, so the sharded path
		// races the portfolio arms on it.
		return newInstance("race", qsmt.And(qsmt.Periodic(2, 8), qsmt.Palindrome(8)))
	}
	for _, k := range harness.AllKinds() {
		if string(k) == s.family {
			return newInstance(s.family, g.hw.Generate(k, n))
		}
	}
	return newInstance(s.family, g.extension(s.family, n))
}

// expand repeats a template until total entries exist and shuffles the
// result with the generator's RNG.
func (g *gen) expand(tpl []slot, total int) []slot {
	out := make([]slot, 0, total)
	for len(out) < total {
		for _, s := range tpl {
			for k := 0; k < s.count && len(out) < total; k++ {
				out = append(out, s)
			}
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// wholeTemplate is the solve-whole mix per 100 ops. Light families
// presolve to zero variables and finish in tens of microseconds; anneal
// families reach the whole-model annealer; unsat and optimize ops are
// the heavy class (unsat ops spend the whole retry budget). Light plus
// anneal classes hold 80% of ops, so p50 sits inside the anneal class
// and p99 inside the heavy class, away from both boundaries.
var wholeTemplate = []slot{
	{"equality", "light", 4, 4, 12},
	{"concat", "light", 4, 4, 12},
	{"replace-all", "light", 4, 4, 12},
	{"replace", "light", 4, 4, 12},
	{"reverse", "light", 4, 4, 12},
	{"substring-match", "light", 4, 4, 12},
	{"length", "light", 4, 4, 12},
	{"toupper", "light", 2, 4, 12},
	{"tolower", "light", 2, 4, 12},
	{"includes", "light", 2, 4, 12},
	{"indexof", "anneal", 6, 4, 10},
	{"palindrome", "anneal", 7, 4, 10},
	{"regex", "anneal", 7, 4, 10},
	{"prefixof", "anneal", 6, 4, 10},
	{"suffixof", "anneal", 6, 4, 10},
	{"charat", "anneal", 6, 4, 10},
	{"periodic", "anneal", 3, 4, 10},
	{"anystring", "anneal", 3, 4, 10},
	{"avoid", "anneal", 2, 4, 8},
	{"unsat", "heavy", 10, 4, 6},
	{"optimize", "heavy", 10, 4, 6},
}

// wholeOps generates the solve-whole list: warm-up prefix plus timed ops.
// The prefix holds each template slot once (warm must equal the slot
// count), so set-up does the same mix of work on every seed.
func wholeOps(seed int64, warm, timed int) ([]op, error) {
	g := newGen(seed, 1)
	slots := make([]slot, 0, warm+timed)
	for _, s := range wholeTemplate {
		s.count = 1
		slots = append(slots, s)
	}
	if warm != len(slots) {
		return nil, fmt.Errorf("solve-whole warm-up is %d ops, want %d", warm, len(slots))
	}
	slots = append(slots, g.expand(wholeTemplate, timed)...)
	ops := make([]op, len(slots))
	for i, s := range slots {
		ops[i] = op{class: s.class, items: []instance{g.make(s)}}
	}
	return ops, nil
}

// batchTemplate is one block of 16 batch members. Half of each batch
// recurs from a fixed pool drawn with the same template, so the compile
// cache is read; the other half is fresh, so it takes inserts.
var batchTemplate = []slot{
	{"equality", "light", 2, 4, 8},
	{"concat", "light", 1, 4, 8},
	{"replace-all", "light", 1, 4, 8},
	{"replace", "light", 1, 4, 8},
	{"reverse", "light", 1, 4, 8},
	{"substring-match", "light", 1, 4, 8},
	{"length", "light", 1, 4, 8},
	{"includes", "fallback", 2, 9, 11},
	{"indexof", "shard", 1, 4, 8},
	{"palindrome", "shard", 1, 4, 8},
	{"regex", "shard", 1, 4, 8},
	{"prefixof", "shard", 1, 4, 8},
	{"race", "race", 2, 8, 8},
}

// hardTemplate is one block of 16 members of a hard batch: only
// families that reach the shard tiers, the fallback or the portfolio.
// One batch in twenty is hard (two fresh blocks), the heavy class, so
// p99 lies inside it rather than in the tail of the ordinary batches.
var hardTemplate = []slot{
	{"includes", "fallback", 3, 9, 11},
	{"indexof", "shard", 1, 6, 8},
	{"palindrome", "shard", 2, 6, 8},
	{"regex", "shard", 1, 6, 8},
	{"prefixof", "shard", 1, 6, 8},
	{"race", "race", 8, 8, 8},
}

// poolSize is sixteen blocks. The pool half of every batch recurs all
// pass long, so with a pool of four blocks the few strings the seed drew
// for it set the pass's p50 (13% spread over ten seeds); sixteen blocks
// average them out (7%).
const (
	batchSize      = 32
	poolSize       = 256
	batchHardEvery = 20
)

// batchOps generates batch-shard ops of batchSize members each. An
// ordinary batch holds exactly two template blocks: one recurring pool
// block (the pool is poolSize/16 blocks, used in rotation) and one fresh
// block, in seeded order, so all ordinary batches share one family mix.
func batchOps(seed int64, warm, timed int) []op {
	g := newGen(seed, 2)
	block := 0
	for _, s := range batchTemplate {
		block += s.count
	}
	pool := make([][]instance, poolSize/block)
	for b := range pool {
		for _, s := range g.expand(batchTemplate, block) {
			pool[b] = append(pool[b], g.make(s))
		}
	}
	ops := make([]op, warm+timed)
	for i := range ops {
		class := "batch"
		items := append([]instance(nil), pool[i%len(pool)]...)
		fresh := g.expand(batchTemplate, block)
		if i >= warm && (i-warm)%batchHardEvery == batchHardEvery/2 {
			class, items = "hard", nil
			fresh = g.expand(hardTemplate, 2*block)
		}
		for _, s := range fresh {
			items = append(items, g.make(s))
		}
		g.rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
		ops[i] = op{class: class, items: items}
	}
	return ops
}

// serviceTemplate draws the QUBOs service-jobs submits: whole models of
// solve-whole families (light families still carry full-size models).
var serviceTemplate = []slot{
	{"equality", "job", 2, 4, 8},
	{"reverse", "job", 1, 4, 8},
	{"substring-match", "job", 1, 4, 8},
	{"palindrome", "job", 2, 4, 8},
	{"prefixof", "job", 2, 4, 8},
	{"suffixof", "job", 1, 4, 8},
	{"charat", "job", 1, 4, 8},
}

// Service-jobs job knobs: 64 reads as everywhere else, with a short
// anneal so one job costs about a millisecond of backend CPU. One timed
// op in twenty is a long anneal, the heavy class (5% of ops, so p99 lies
// inside it rather than in the tail of the short jobs).
const (
	servicePool       = 32
	serviceFreshEvery = 5 // one op in five submits a never-seen model
	serviceLongEvery  = 20
	serviceReads      = 64
	serviceSweeps     = 100
	serviceLongSweeps = 2000
)

// serviceOps generates service-jobs ops. Four in five reuse a pool model
// (the warm-up prefix uploads the whole pool, so these hit the CAS); one
// in five is fresh and takes the 412 upload path.
func serviceOps(seed int64, warm, timed int) ([]op, error) {
	g := newGen(seed, 4)
	compile := func(in instance) (*qubo.Compiled, error) {
		m, err := in.hard.BuildModel()
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", in.family, err)
		}
		return m.Compile(), nil
	}
	type entry struct {
		in instance
		c  *qubo.Compiled
	}
	pool := make([]entry, 0, servicePool)
	for _, s := range g.expand(serviceTemplate, servicePool) {
		in := g.make(s)
		c, err := compile(in)
		if err != nil {
			return nil, err
		}
		pool = append(pool, entry{in, c})
	}
	// Long jobs all re-anneal one hot model, so the heavy class is one
	// model size on every seed.
	longIn := newInstance("palindrome", qsmt.Palindrome(8))
	longC, err := compile(longIn)
	if err != nil {
		return nil, err
	}
	long := entry{longIn, longC}
	total := warm + timed
	fresh := g.expand(serviceTemplate, total/serviceFreshEvery+1)
	ops := make([]op, total)
	for i := range ops {
		e, class := pool[i%servicePool], "upload" // the warm-up uploads the pool
		if i >= warm {
			e, class = pool[g.rng.Intn(servicePool)], "cas-hit"
			if (i-warm)%serviceFreshEvery == serviceFreshEvery-1 {
				in := g.make(fresh[i/serviceFreshEvery])
				c, err := compile(in)
				if err != nil {
					return nil, err
				}
				e, class = entry{in, c}, "upload"
			}
		}
		sweeps := serviceSweeps
		if i >= warm && (i-warm)%serviceLongEvery == serviceLongEvery/2 {
			e, sweeps, class = long, serviceLongSweeps, "long"
		}
		ops[i] = op{class: class, items: []instance{e.in}, compiled: e.c,
			job: remote.Job{Reads: serviceReads, Sweeps: sweeps, Seed: seed*10_000_019 + int64(i) + 1}}
	}
	return ops, nil
}

// smtFrame is the live state of one DFS walk: SMT-LIB assertion texts
// and, in the same order, the constraints the interpreter compiles them
// to (the length assertion excepted, as in smtlib.Compile).
type smtFrame struct {
	asserts []string
	cons    []qsmt.Constraint
}

// constraint mirrors smtlib.Compile for one string variable: no
// structural assertion means any printable string, one is itself, and
// several merge into a conjunction.
func (f smtFrame) constraint(n int) qsmt.Constraint {
	switch len(f.cons) {
	case 0:
		return qsmt.AnyString(n)
	case 1:
		return f.cons[0]
	}
	return qsmt.And(f.cons...)
}

func (f smtFrame) with(assert string, c qsmt.Constraint) smtFrame {
	return smtFrame{
		asserts: append(append([]string(nil), f.asserts...), assert),
		cons:    append(append([]qsmt.Constraint(nil), f.cons...), c),
	}
}

// smtBaseKinds is the number of base-frame families smtBase draws from.
const smtBaseKinds = 6

// smtBase draws a walk's base frame: the family, its frame, and the
// positions a pin may fix without contradicting the base (pins on one
// path use distinct positions, so every check-sat is satisfiable).
func (g *gen) smtBase(kind, n int) (family string, f smtFrame, free []int, alphabet string) {
	all := func(lo, hi int) []int {
		var out []int
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}
	alphabet = lower
	switch kind {
	case 0:
		return "palindrome", f.with(`(assert (= x (str.rev x)))`, qsmt.Palindrome(n)), all(0, n/2), alphabet
	case 1:
		p := g.word(1 + g.rng.Intn(2))
		return "prefixof", f.with(fmt.Sprintf(`(assert (str.prefixof "%s" x))`, p), qsmt.PrefixOf(p, n)), all(len(p), n), alphabet
	case 2:
		s := g.word(1 + g.rng.Intn(2))
		return "suffixof", f.with(fmt.Sprintf(`(assert (str.suffixof "%s" x))`, s), qsmt.SuffixOf(s, n)), all(0, n-len(s)), alphabet
	case 3:
		i, c := g.rng.Intn(n), g.letter()
		free = append(all(0, i), all(i+1, n)...)
		return "charat", f.with(fmt.Sprintf(`(assert (= (str.at x %d) "%c"))`, i, c), qsmt.CharAt(c, i, n)), free, alphabet
	case 4:
		return "length", f, all(0, n), alphabet
	default:
		a, b := g.letter(), g.letter()
		c := g.otherLetter(b)
		re := fmt.Sprintf(`(assert (str.in_re x (re.++ (str.to_re "%c") (re.+ (re.union (str.to_re "%c") (str.to_re "%c"))))))`, a, b, c)
		return "regex", f.with(re, qsmt.Regex(fmt.Sprintf("%c[%c%c]+", a, b, c), n)), all(1, n), string([]byte{b, c})
	}
}

// smtOps generates smt-incremental ops: seeded DFS push/pop walks. A
// walk opens a scope with the variable and a base frame (class "base"),
// then visits a tree of depth 1-3 and branching 1-3 whose nodes each
// push one (str.at x i "c") pin (class "pin"); the base also gets one
// infeasible branch (class "infeasible", the heavy class: about 5% of
// ops). After a node's children it pops back and re-checks the node
// (class "recheck"), the access pattern of a symbolic executor returning
// to a branch point. Every op is one Execute holding exactly one
// check-sat.
func smtOps(seed int64, warm, timed int) []op {
	g := newGen(seed, 3)
	total := warm + timed
	ops := make([]op, 0, total+64)
	pending := 0 // pops owed before the next op's own commands
	emit := func(class, family, cmds string, f smtFrame, n int) {
		c := f.constraint(n)
		var snap strings.Builder
		snap.WriteString("(declare-const x String)")
		for _, a := range f.asserts {
			snap.WriteString(a)
		}
		fmt.Fprintf(&snap, "(assert (= (str.len x) %d))(check-sat)", n)
		ops = append(ops, op{
			class:    class,
			items:    []instance{newInstance(family, c)},
			script:   strings.Repeat("(pop)", pending) + cmds + "(check-sat)",
			snapshot: snap.String(),
		})
		pending = 0
	}
	// Walks are stratified like the other lists: every round visits each
	// (base family, depth, branching) combination once, in seeded order.
	var round []int
	for walks := 0; len(ops) < total; walks++ {
		if len(round) == 0 {
			round = g.rng.Perm(smtBaseKinds * 9)
		}
		kind := round[0]
		round = round[1:]
		n := 4 + walks%5
		family, base, free, alphabet := g.smtBase(kind%smtBaseKinds, n)
		depth := 1 + (kind/smtBaseKinds)%3
		branch := 1 + (kind/smtBaseKinds)/3
		var cmds strings.Builder
		cmds.WriteString("(push)(declare-const x String)")
		for _, a := range base.asserts {
			cmds.WriteString(a)
		}
		fmt.Fprintf(&cmds, "(assert (= (str.len x) %d))", n)
		emit("base", family, cmds.String(), base, n)

		var walk func(f smtFrame, d int, used map[int]bool)
		walk = func(f smtFrame, d int, used map[int]bool) {
			var options []int
			for _, p := range free {
				if !used[p] {
					options = append(options, p)
				}
			}
			if d >= depth || len(options) == 0 {
				return
			}
			pos := options[g.rng.Intn(len(options))]
			for k := 0; k < branch; k++ {
				c := alphabet[g.rng.Intn(len(alphabet))]
				pin := fmt.Sprintf(`(assert (= (str.at x %d) "%c"))`, pos, c)
				child := f.with(pin, qsmt.CharAt(c, pos, n))
				emit("pin", family, "(push)"+pin, child, n)
				next := map[int]bool{pos: true}
				for p := range used {
					next[p] = true
				}
				walk(child, d+1, next)
				pending++ // pop this child before the next sibling
			}
			if d == 0 {
				// One infeasible branch per walk: two different characters
				// at one position. The oracle labels it unsat; the solver
				// can only spend its retry budget and answer unknown.
				a := alphabet[g.rng.Intn(len(alphabet))]
				b := lower[(strings.IndexByte(lower, a)+1+g.rng.Intn(len(lower)-1))%len(lower)]
				pa := fmt.Sprintf(`(assert (= (str.at x %d) "%c"))`, pos, a)
				pb := fmt.Sprintf(`(assert (= (str.at x %d) "%c"))`, pos, b)
				emit("infeasible", family, "(push)"+pa+pb, f.with(pa, qsmt.CharAt(a, pos, n)).with(pb, qsmt.CharAt(b, pos, n)), n)
				pending++
			}
			emit("recheck", family, "", f, n)
		}
		walk(base, 0, map[int]bool{})
		pending++ // close the walk's scope
	}
	return ops[:total]
}
