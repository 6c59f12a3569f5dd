package harness

import (
	"time"

	"qsmt/internal/anneal"
	"qsmt/internal/core"
	"qsmt/internal/tts"
)

// The time-to-solution statistic itself lives in internal/tts so the
// portfolio race (internal/portfolio) can share it without depending on
// the experiment harness. The aliases
// below keep the harness API — and every experiment script written
// against it — unchanged.

// TTSNever is the sentinel TTS returns when the configuration can never
// reach the requested confidence: zero (or unmeasurable) success rate.
// It is negative so naive comparisons treat it as "not a real duration";
// callers should compare against it explicitly.
const TTSNever = tts.Never

// TTSMax is the saturation sentinel for finite but astronomically large
// time-to-solution values whose nanosecond count does not fit in a
// time.Duration. A result of TTSMax means "longer than ~292 years", not
// "never".
const TTSMax = tts.Max

// TTS computes the time-to-solution at the given confidence: the
// expected wall-clock to see at least one success with probability
// `confidence`, given independent runs of duration runTime that each
// succeed with probability successRate. This is the standard figure of
// merit for annealers (usually quoted as TTS(0.99)). See
// internal/tts.TTS for the formula and the pinned edge cases.
func TTS(runTime time.Duration, successRate, confidence float64) time.Duration {
	return tts.TTS(runTime, successRate, confidence)
}

// TimeToSolution (Ext-F) estimates TTS(0.99) per constraint family and
// length: single-read anneals are repeated `trials` times to estimate
// the per-read success probability and the per-read wall clock.
func TimeToSolution(kinds []ConstraintKind, lengths []int, sweeps, trials int, seed int64) *Series {
	s := &Series{
		Name:    "Ext-F — time-to-solution TTS(0.99) per constraint family",
		Columns: []string{"kind", "n", "vars", "p(success per read)", "t(read)", "TTS(0.99)"},
	}
	w := NewWorkload(seed)
	for _, kind := range kinds {
		for _, n := range lengths {
			c := w.Generate(kind, n)
			m, err := c.BuildModel()
			if err != nil {
				continue
			}
			compiled := m.Compile()
			hits := 0
			start := time.Now()
			for trial := 0; trial < trials; trial++ {
				sa := &anneal.SimulatedAnnealer{
					Reads: 1, Sweeps: sweeps,
					Seed: seed + int64(trial)*7919 + int64(n),
				}
				ss, err := sa.Sample(compiled)
				if err != nil || ss.Len() == 0 {
					continue
				}
				if sampleSolves(c, ss.Best()) {
					hits++
				}
			}
			elapsed := time.Since(start)
			perRead := elapsed / time.Duration(trials)
			pSuccess := float64(hits) / float64(trials)
			tts := TTS(perRead, pSuccess, 0.99)
			ttsText := tts.Round(time.Microsecond).String()
			switch {
			case tts == TTSNever:
				ttsText = "∞ (0 successes)"
			case tts == TTSMax:
				ttsText = ">292y (saturated)"
			}
			s.Add(string(kind), n, compiled.N, pSuccess, perRead.Round(time.Microsecond), ttsText)
		}
	}
	return s
}

func sampleSolves(c core.Constraint, sample anneal.Sample) bool {
	w, err := c.Decode(sample.X)
	return err == nil && c.Check(w) == nil
}

// EnergyTrajectory records a single-read annealing trace (best energy
// per sweep) for a representative constraint — the convergence figure of
// annealing evaluations. Points are downsampled to at most maxPoints
// rows.
func EnergyTrajectory(c core.Constraint, sweeps, maxPoints int, seed int64) *Series {
	s := &Series{
		Name:    "Energy trajectory — " + c.Name(),
		Columns: []string{"sweep", "beta", "walker energy", "best energy"},
	}
	m, err := c.BuildModel()
	if err != nil {
		s.Add(0, 0, 0, "error: "+err.Error())
		return s
	}
	trace, _, err := anneal.Trace(m.Compile(), sweeps, nil, seed)
	if err != nil {
		s.Add(0, 0, 0, "error: "+err.Error())
		return s
	}
	if maxPoints <= 0 {
		maxPoints = 50
	}
	step := len(trace) / maxPoints
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(trace); i += step {
		p := trace[i]
		s.Add(p.Sweep, p.Beta, p.Energy, p.Best)
	}
	return s
}
