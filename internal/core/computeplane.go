package core

import (
	"errors"
	"time"

	"cloud4home/internal/machine"
	"cloud4home/internal/parallel"
	"cloud4home/internal/policy"
	"cloud4home/internal/services"
)

const (
	// defaultSpeculationMargin is the relative estimate gap under which
	// the runner-up is launched too.
	defaultSpeculationMargin = 0.25
	// defaultSpeculationDelay staggers the secondary launch behind the
	// primary. The stagger keeps the hedges' simulated events
	// deterministically ordered and bounds the wasted work when the
	// primary is healthy.
	defaultSpeculationDelay = 2 * time.Millisecond
)

// errSpeculationCancelled aborts the losing hedge at a phase boundary.
var errSpeculationCancelled = errors.New("core: speculative execution cancelled")

// strandsFor decides how many machine strands (and counted shards) a task
// of the given input size uses in this home. One strand — the paper's
// sequential model, which already grants Task.Parallelism speedup for
// free — is kept whenever sharding would not strictly beat it, so the
// concurrent compute plane never regresses the paper path and the
// zero-value config always yields strands == 1.
func (n *Node) strandsFor(task machine.Task, inputSize int64) (strands, shards int) {
	strands = 1
	shards = parallel.ShardsFor(inputSize)
	w := n.home.cfg.Workers
	if w <= 1 || shards <= 1 {
		return strands, shards
	}
	k := w
	if k > shards {
		k = shards
	}
	par := task.Parallelism
	if par < 1 {
		par = 1
	}
	if k > par {
		strands = k
	}
	return strands, shards
}

// firstStep is an overlapped plan's first service step (Config.Overlap)
// as the stage its input move's pull feeds: each delivered chunk's share
// of the execution runs behind its arrival — process-as-pages-arrive. The
// begin hook admits the task on the target as the first wire into it
// starts, after the request round and the holder's read, so concurrent
// work sees the honest load; the dispatch runs while the first bytes are
// on the wire.
type firstStep struct {
	domainSink
	lease           *machine.Lease // admitted by the begin hook
	strands, shards int
}

// overlapFirst builds spec's step on tgt for a size-byte input.
func (n *Node) overlapFirst(tgt *Node, spec services.Spec, size int64) *firstStep {
	task := spec.Task(size)
	f := &firstStep{domainSink: domainSink{clock: n.clock}}
	f.strands, f.shards = n.strandsFor(task, size)
	f.begin = func() {
		// A task Begin refuses leaves the step to run after the move, and
		// to fail there.
		if lease, err := tgt.mach.Begin(task, f.strands); err == nil {
			perByte := float64(lease.Duration()) / float64(size)
			f.lease, f.ready = lease, n.clock.Now().Add(n.dispatchFor(tgt.addr))
			f.price = func(b int64) time.Duration { return time.Duration(float64(b) * perByte) }
		}
	}
	return f
}

// runFirst ends p's begun first step once the input move has returned:
// on a delivered payload the kernel runs while the execution tail past
// the wire elapses. Every exit releases the lease, a failed move's at
// once. The reported Exec (dispatch and run) carries its full serial
// cost; only the observed window shrinks.
func (n *Node) runFirst(p *plan, f *firstStep, data []byte, moveErr error) (ProcessResult, error) {
	if moveErr != nil {
		f.lease.Finish(0)
		return ProcessResult{}, moveErr
	}
	res := stepResult(p.spec, p.target, p.meta.Size)
	k := n.startKernel(p.spec, data, res.OutputSize)
	f.lease.Finish(f.done.Sub(n.clock.Now()))
	if err := k.join(&res, nil); err != nil {
		return ProcessResult{}, err
	}
	res.Breakdown.Exec = n.dispatchFor(p.target) + f.lease.Duration()
	if f.strands > 1 {
		n.ops.ShardsExecuted += int64(f.shards)
	}
	return res, nil
}

// executeDecided runs a decided plan, hedging it onto the decision's top
// two candidates when speculation is enabled and their estimates are
// within the margin. The first hedge to finish wins; the loser is
// cancelled at its next phase boundary. Under the simulated clock the
// winner is deterministic.
func (n *Node) executeDecided(dec Decision, p *plan) (ProcessResult, error) {
	if !n.home.cfg.Speculation || len(dec.Candidates) < 2 {
		return n.execute(p, nil)
	}
	second, ok := runnerUp(n.cfg.DecisionPolicy, dec)
	if !ok || float64(second.Total()) > float64(dec.Chosen.Total())*(1+defaultSpeculationMargin) {
		return n.execute(p, nil)
	}

	n.ops.SpecLaunches++
	// The hedges, primary (0) then secondary (1), publish their outcomes
	// as clock actors, and the parent polls the slot as an actor too
	// (Sleep, never Block), so the winner is deterministic. Each hedge runs
	// a plan of its own.
	slot := &specSlot{}
	start, meta, spec := p.start, p.meta, p.spec
	for i, target := range [2]string{dec.Chosen.Addr, second.Addr} {
		n.spawn(func() {
			if i == 1 {
				// The stagger is this hedge's first event, so the hedges
				// serialise through the clock before touching shared state.
				n.clock.Sleep(defaultSpeculationDelay)
			}
			hp := plan{start: start, meta: meta, target: target, runner: n, spec: spec, mode: ModeDecided}
			res, err := n.execute(&hp, &slot.cancel[i])
			slot.publish(i, specOutcome{res: res, err: err, at: n.clock.Now()})
		})
	}

	// Poll until a hedge succeeds or both have settled. The tick bounds
	// the extra latency added to the winner's observed total.
	const specPollTick = time.Millisecond
	for {
		outs := slot.outs
		// Earliest completion wins; a same-tick tie goes to the decision's
		// first choice.
		win := -1
		for i, o := range outs {
			if !o.at.IsZero() && o.err == nil && (win < 0 || o.at.Before(outs[win].at)) {
				win = i
			}
		}
		if win >= 0 {
			// Cancel the loser; it aborts at its next phase boundary and
			// its in-flight phase settles via Node.Flush.
			if win == 1 {
				n.ops.SpecWins++
			}
			slot.stop(1 - win)
			res := outs[win].res
			res.Breakdown.Decision += n.clock.Now().Sub(outs[win].at) // the poll's wait
			return res, nil
		}
		if !outs[0].at.IsZero() && !outs[1].at.IsZero() {
			return ProcessResult{}, outs[0].err // both failed: the primary's error
		}
		n.clock.Sleep(specPollTick)
	}
}

// specOutcome is one hedge's result, stamped with the virtual time it
// settled; a zero stamp means it has not.
type specOutcome struct {
	res ProcessResult
	err error
	at  time.Time
}

// specSlot is where the two hedges publish their outcomes, by index, and
// where the parent stops the loser; see executeDecided. It has no lock:
// the hedges and the parent are actors, so the clock's turn orders every
// access.
type specSlot struct {
	outs   [2]specOutcome
	cancel [2]bool // polled by hedge i at each phase boundary (execute)
}

func (s *specSlot) publish(i int, o specOutcome) { s.outs[i] = o }

func (s *specSlot) stop(i int) { s.cancel[i] = true }

// runnerUp applies the decision policy to the non-chosen candidates.
func runnerUp(pol policy.DecisionPolicy, dec Decision) (policy.ProcCandidate, bool) {
	rest := make([]policy.ProcCandidate, 0, len(dec.Candidates))
	for _, c := range dec.Candidates {
		if c.Addr != dec.Chosen.Addr {
			rest = append(rest, c)
		}
	}
	if len(rest) == 0 {
		return policy.ProcCandidate{}, false
	}
	i, err := pol.Choose(rest)
	if err != nil {
		return policy.ProcCandidate{}, false
	}
	return rest[i], true
}
