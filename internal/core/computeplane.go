package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cloud4home/internal/machine"
	"cloud4home/internal/netsim"
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

// moveAndRun fuses the input move with the first service execution:
// the task is admitted on the target when the wire starts (so concurrent
// work sees the honest load), the dispatch overhead overlaps the
// transfer, and each delivered chunk's share of the execution is
// scheduled behind its arrival — process-as-pages-arrive. The reported
// InputMove (request and wire) and Exec (dispatch and run) carry their
// full serial costs; only the observed wall window shrinks.
//
// ok=false means the path is ineligible (co-located input, cloud on
// either side, sparse-size object, or a dead holder/target) and the
// caller must use the sequential moveInput+runService path.
func (n *Node) moveAndRun(target string, spec services.Spec, meta ObjectMeta) (res ProcessResult, data []byte, ok bool, err error) {
	holder, okH := n.home.Node(meta.Location)
	tgt, okT := n.home.Node(target)
	if !okH || !okT || meta.Location == target || meta.Size <= 0 {
		return ProcessResult{}, nil, false, nil
	}

	// Request message to the owner, exactly as the sequential path.
	msg := n.home.net.Message(n.lanPathTo(holder))
	_, data, err = holder.store.GetRef(meta.Name)
	if err != nil {
		return ProcessResult{}, nil, true, err
	}

	task := spec.Task(meta.Size)
	strands, shards := n.strandsFor(task, meta.Size)
	dispatch := n.dispatchFor(target)
	lease, err := tgt.mach.Begin(task, strands)
	if err != nil {
		return ProcessResult{}, nil, true, err
	}
	d := lease.Duration()
	res = stepResult(spec, target, meta.Size)
	// The kernel runs on the host while the wire and the execution tail
	// elapse; it is joined before anything reads its result.
	k := n.startKernel(spec, data, res.OutputSize)

	wireStart := n.clock.Now()
	// Handler dispatch proceeds while the first bytes are on the wire.
	ready := wireStart.Add(dispatch)
	var computeDone time.Time
	var delivered int64
	perByte := float64(d) / float64(meta.Size)
	onChunk := func(b int64) {
		delivered += b
		// A chunk's share of the execution runs after (a) the bytes are
		// here, (b) the handler is dispatched, (c) earlier chunks are done.
		base := computeDone
		if now := n.clock.Now(); base.Before(now) {
			base = now
		}
		if base.Before(ready) {
			base = ready
		}
		computeDone = base.Add(time.Duration(float64(b) * perByte))
	}
	// Chunk stays 0 (the wire's own granularity): a single-member set
	// then draws the same jitter sequence as the sequential Transfer, so
	// the reported InputMove is unchanged from the sequential run.
	st, wire, terr := n.home.net.TransferSet([]netsim.TransferReq{{
		Path:    holder.lanPathTo(tgt),
		Size:    meta.Size,
		OnChunk: onChunk,
	}})
	if terr != nil || len(st) == 0 {
		return ProcessResult{}, nil, true, k.join(&res, fmt.Errorf("core: move %q to %s: %v", meta.Name, target, terr))
	}
	if rest := meta.Size - delivered; rest > 0 {
		onChunk(rest)
	}
	// Settle the execution tail extending past the wire.
	lease.Finish(computeDone.Sub(n.clock.Now()))
	if err := k.join(&res, nil); err != nil {
		return ProcessResult{}, nil, true, err
	}

	res.Breakdown.InputMove = msg + wire
	res.Breakdown.Exec = dispatch + d
	if strands > 1 {
		n.ops.shardsExecuted.Add(int64(shards))
	}
	if saved := wire + dispatch + d - n.clock.Now().Sub(wireStart); saved > 0 {
		n.ops.overlapSaved.Add(int64(saved))
	}
	return res, data, true, nil
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

	n.ops.specLaunches.Add(1)
	// The hedges, primary (0) then secondary (1), publish their outcomes
	// as clock actors, and the parent polls the slot as an actor too
	// (Sleep, never Block), so the winner is deterministic. Each hedge runs
	// a plan of its own.
	slot := &specSlot{}
	var cancel [2]atomic.Bool
	start, meta, spec := p.start, p.meta, p.spec
	for i, target := range [2]string{dec.Chosen.Addr, second.Addr} {
		n.spawn(func() {
			if i == 1 {
				// The stagger is this hedge's first event, so the hedges
				// serialise through the clock before touching shared state.
				n.clock.Sleep(defaultSpeculationDelay)
			}
			hp := plan{start: start, meta: meta, target: target, runner: n, spec: spec, mode: ModeDecided}
			res, err := n.execute(&hp, &cancel[i])
			slot.publish(i, specOutcome{res: res, err: err, at: n.clock.Now()})
		})
	}

	// Poll until a hedge succeeds or both have settled. The tick bounds
	// the extra latency added to the winner's observed total.
	const specPollTick = time.Millisecond
	for {
		outs := slot.snapshot()
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
				n.ops.specWins.Add(1)
			}
			cancel[1-win].Store(true)
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
// the parent polls them; see executeDecided.
type specSlot struct {
	mu   sync.Mutex
	outs [2]specOutcome // guarded by mu
}

func (s *specSlot) publish(i int, o specOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.outs[i] = o
}

func (s *specSlot) snapshot() [2]specOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outs
}

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
