// Trial sources: the pluggable supply side of an exploration sweep. The
// engine asks a TrialSource for specs one at a time and feeds the outcome
// of every finished trial back, in strict trial-index order, so a source
// can steer — which is what turns racehunt from blind sampling into a
// schedule fuzzer: SeedRotation supplies fresh (strategy, seed) trials,
// MutationQueue mutates recorded demos from earlier trials and replays
// them divergence-tolerantly, and WeightedSource interleaves any number of
// sources deterministically.
package explore

import (
	"fmt"
	"strings"

	"repro/internal/demo"
	"repro/internal/prng"
)

// Mutant is the demo-replay payload of a mutated trial: the candidate
// schedule plus its lineage.
type Mutant struct {
	// Demo is the mutated candidate, replayed under
	// demo.ReplayTolerantRecord.
	Demo *demo.Demo
	// Ancestor identifies the root recording the mutation chain started
	// from: a failure signature, or "clean:trial<N>" for a passing trial's
	// recording.
	Ancestor string
	// Ops is the operator chain from the root ancestor to this candidate.
	Ops []string
}

// Feedback is the engine's report on one finished trial, delivered to the
// source in trial-index order.
type Feedback struct {
	Spec   TrialSpec
	Failed bool
	// Signature is the canonical failure signature ("" for passing trials).
	Signature string
	// Demo is the trial's recording: the fresh recording of a seed trial,
	// or the divergence re-recording of a mutated trial. Nil when the trial
	// could not run.
	Demo *demo.Demo
	// Diverged reports whether a mutated trial left its candidate schedule.
	Diverged bool
}

// TrialSource supplies trial specs and receives per-trial feedback. The
// engine serialises all calls and fixes their interleaving (see
// feedbackLag), so implementations need no locking and determinism
// follows from deterministic Next/Feedback logic.
type TrialSource interface {
	// Next returns the next trial spec, or ok=false when the source has
	// nothing to offer right now (it may recover after more Feedback).
	// Spec.Index is assigned by the engine.
	Next() (spec TrialSpec, ok bool)
	// Feedback delivers one finished trial's outcome. Calls arrive in
	// trial-index order.
	Feedback(fb Feedback)
}

// SeedRotation is the fresh-schedule source: strategy × seed × PCT-depth
// rotation, exactly the sweep the flat Config fields used to describe.
// It never exhausts and ignores feedback.
type SeedRotation struct {
	// MasterSeed is expanded into per-trial seeds with prng.Derive.
	MasterSeed uint64
	// Strategies rotate across trials (trial i uses strategy i mod len).
	// Empty means random only.
	Strategies []demo.Strategy
	// PCTDepths rotate across the PCT/delay trials; empty leaves the
	// strategy defaults. PCTLength is passed through unchanged.
	PCTDepths []int
	PCTLength uint64

	next int
}

// SpecAt returns the rotation's i'th spec, a pure function of (config, i).
func (s *SeedRotation) SpecAt(i int) TrialSpec {
	spec := TrialSpec{Strategy: demo.StrategyRandom}
	if n := len(s.Strategies); n > 0 {
		spec.Strategy = s.Strategies[i%n]
	}
	spec.Seed1, spec.Seed2 = prng.Derive(s.MasterSeed, uint64(i))
	if spec.Strategy == demo.StrategyPCT || spec.Strategy == demo.StrategyDelay {
		if n := len(s.PCTDepths); n > 0 {
			rotation := i
			if sn := len(s.Strategies); sn > 0 {
				rotation = i / sn
			}
			spec.PCTDepth = s.PCTDepths[rotation%n]
		}
		spec.PCTLength = s.PCTLength
	}
	return spec
}

func (s *SeedRotation) Next() (TrialSpec, bool) {
	spec := s.SpecAt(s.next)
	s.next++
	return spec, true
}

func (s *SeedRotation) Feedback(Feedback) {}

// maxAncestors bounds MutationQueue's ancestor pool; adoptions past the
// bound overwrite the oldest entries round-robin.
const maxAncestors = 64

type ancestor struct {
	demo *demo.Demo
	sig  string
	ops  []string
}

// MutationQueue is the schedule-fuzzing source: it mutates recorded demos
// from earlier trials (its ancestors) and emits them as tolerant-replay
// trials. Failing trials' demos become ancestors automatically — a fresh
// failure signature restarts a mutation chain there — and, with
// AdoptPassing, so do passing recordings (the NodeFz move: a passing
// schedule's neighbourhood may hide the bug). The queue is empty until the
// first adoption (or SeedDemo/SeedCorpus), so it is composed behind a
// SeedRotation via NewWeightedSource rather than used alone.
type MutationQueue struct {
	// Seed drives operator and position choices; mutants are a pure
	// function of (ancestors, Seed, call sequence).
	Seed uint64
	// Ops is the operator set (nil = demo.DefaultOps).
	Ops []demo.MutationOp
	// MaxChain bounds how many operators stack onto one root ancestor
	// before its descendants stop being re-adopted (default 4).
	MaxChain int
	// Budget caps how many mutants the queue emits in total (0 = no cap).
	Budget int
	// AdoptPassing adopts passing trials' recordings as mutation roots.
	AdoptPassing bool

	rng       *prng.Source
	ancestors []ancestor
	rr        int // round-robin cursor over ancestors
	overwrite int // round-robin cursor for adoption past maxAncestors
	emitted   int
	seenSig   map[string]bool
}

func (q *MutationQueue) init() {
	if q.rng == nil {
		q.rng = prng.New(q.Seed, q.Seed^0x6d75746174650a5d)
		q.seenSig = make(map[string]bool)
	}
}

func (q *MutationQueue) maxChain() int {
	if q.MaxChain <= 0 {
		return 4
	}
	return q.MaxChain
}

// SeedDemo pre-seeds the queue with a root ancestor, e.g. a corpus entry
// from an earlier hunt.
func (q *MutationQueue) SeedDemo(d *demo.Demo, sig string) {
	q.init()
	q.adopt(d, sig, nil)
}

// SeedCorpus pre-seeds the queue with every decodable demo in c.
func (q *MutationQueue) SeedCorpus(c *Corpus) error {
	q.init()
	for i := range c.Entries {
		e := &c.Entries[i]
		if len(e.DemoBytes) == 0 {
			continue
		}
		d, err := e.Decode()
		if err != nil {
			return fmt.Errorf("explore: seeding corpus entry %d: %w", i, err)
		}
		q.adopt(d, e.Signature, nil)
	}
	return nil
}

func (q *MutationQueue) adopt(d *demo.Demo, sig string, ops []string) {
	if d == nil {
		return
	}
	a := ancestor{demo: d, sig: sig, ops: ops}
	if sig != "" {
		q.seenSig[sig] = true
	}
	if len(q.ancestors) < maxAncestors {
		q.ancestors = append(q.ancestors, a)
		return
	}
	q.ancestors[q.overwrite%maxAncestors] = a
	q.overwrite++
}

func (q *MutationQueue) Next() (TrialSpec, bool) {
	q.init()
	if len(q.ancestors) == 0 || (q.Budget > 0 && q.emitted >= q.Budget) {
		return TrialSpec{}, false
	}
	// Try a bounded number of (ancestor, operator-permutation) draws; an
	// ancestor no operator applies to (e.g. a one-tick demo) is skipped.
	for attempt := 0; attempt < len(q.ancestors)+4; attempt++ {
		anc := q.ancestors[q.rr%len(q.ancestors)]
		q.rr++
		m, op, err := demo.MutateOnce(anc.demo, q.rng, q.Ops)
		if err != nil {
			continue
		}
		q.emitted++
		ops := append(append([]string(nil), anc.ops...), op)
		return TrialSpec{
			Strategy: m.Strategy, Seed1: m.Seed1, Seed2: m.Seed2,
			Mutant: &Mutant{Demo: m, Ancestor: anc.sig, Ops: ops},
		}, true
	}
	return TrialSpec{}, false
}

func (q *MutationQueue) Feedback(fb Feedback) {
	q.init()
	if fb.Demo == nil {
		return
	}
	if m := fb.Spec.Mutant; m != nil {
		// A mutant that failed with a fresh signature found new behaviour:
		// its divergence re-recording (strict-replayable by construction)
		// restarts a chain, chain depth permitting.
		if fb.Failed && !q.seenSig[fb.Signature] && len(m.Ops) < q.maxChain() {
			q.adopt(fb.Demo, fb.Signature, m.Ops)
		}
		return
	}
	if fb.Failed {
		if !q.seenSig[fb.Signature] {
			q.adopt(fb.Demo, fb.Signature, nil)
		}
		return
	}
	if q.AdoptPassing {
		q.adopt(fb.Demo, fmt.Sprintf("clean:trial%d", fb.Spec.Index), nil)
	}
}

// WeightedSource interleaves child sources by integer weight with a
// deterministic round-robin: a cycle serves Weights[i] trials from child i
// before moving on. A child that declines (Next ok=false) is skipped for
// the rest of the cycle; the source is exhausted only when every child
// declines. Feedback is broadcast to all children.
type WeightedSource struct {
	sources []TrialSource
	weights []int
	cursor  int // child index within the current cycle
	served  int // trials served from the current child this cycle
}

// NewWeightedSource composes sources with the given per-source weights
// (len(weights) must equal len(sources); weights must be positive).
func NewWeightedSource(sources []TrialSource, weights []int) (*WeightedSource, error) {
	if len(sources) == 0 || len(sources) != len(weights) {
		return nil, fmt.Errorf("explore: %d sources with %d weights", len(sources), len(weights))
	}
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("explore: non-positive weight %d for source %d", w, i)
		}
	}
	return &WeightedSource{sources: sources, weights: weights}, nil
}

func (w *WeightedSource) Next() (TrialSpec, bool) {
	// At most one full pass over the children: each is offered its
	// remaining share of the cycle, and a decline forfeits that share.
	for tried := 0; tried < len(w.sources); tried++ {
		i := w.cursor
		if spec, ok := w.sources[i].Next(); ok {
			w.served++
			if w.served >= w.weights[i] {
				w.advance()
			}
			return spec, true
		}
		w.advance()
	}
	return TrialSpec{}, false
}

func (w *WeightedSource) advance() {
	w.cursor = (w.cursor + 1) % len(w.sources)
	w.served = 0
}

func (w *WeightedSource) Feedback(fb Feedback) {
	for _, s := range w.sources {
		s.Feedback(fb)
	}
}

// Key renders the spec's identity — strategy, seeds and (for mutants)
// lineage — as a stable pointer-free string for logging and cross-run
// comparison.
func (s TrialSpec) Key() string {
	k := fmt.Sprintf("%s:%#x:%#x", s.Strategy, s.Seed1, s.Seed2)
	if s.PCTDepth != 0 || s.PCTLength != 0 {
		k += fmt.Sprintf(":d%d:l%d", s.PCTDepth, s.PCTLength)
	}
	if s.Mutant != nil {
		k += fmt.Sprintf(":mutant[%s<-%s]", strings.Join(s.Mutant.Ops, ","), s.Mutant.Ancestor)
	}
	return k
}
