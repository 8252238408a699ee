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

// ComputePlaneConfig enables the concurrent compute-plane features. The
// zero value reproduces the paper's behaviour exactly: one machine strand
// per task, input movement and execution charged back-to-back, and one
// execution site per process operation.
type ComputePlaneConfig struct {
	// Workers is the per-node width of simulated sharded execution
	// (machine.ExecSharded strands). Values ≤ 1 keep the paper's intrinsic
	// Task.Parallelism execution model. Sharded execution engages only
	// when it strictly beats that model (the effective strand count
	// exceeds the service's intrinsic parallelism). It sizes virtual time
	// only: how the host runs a kernel is the services package's business.
	Workers int
	// Overlap starts execution on delivered pages while the rest of the
	// input move is still in flight (process-as-pages-arrive), so
	// ProcessBreakdown.Total < Decision + InputMove + Exec + OutputMove
	// at large inputs while each phase still reports its full cost.
	Overlap bool
	// Speculation hedges a decided process operation onto the top two
	// candidates when their estimates are within defaultSpeculationMargin,
	// cancelling the loser on first completion.
	Speculation bool
}

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
// of the given input size uses on this node. One strand — the paper's
// sequential model, which already grants Task.Parallelism speedup for
// free — is kept whenever sharding would not strictly beat it, so the
// concurrent compute plane never regresses the paper path and the
// zero-value config always yields strands == 1.
func (n *Node) strandsFor(task machine.Task, inputSize int64) (strands, shards int) {
	strands = 1
	shards = parallel.ShardsFor(inputSize)
	w := n.cfg.ComputePlane.Workers
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
// InputMove and Exec phases carry their full serial costs; only the
// observed wall window shrinks.
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
	n.home.net.Message(n.lanPathTo(holder))
	_, data, err = holder.store.GetRef(meta.Name)
	if err != nil {
		return ProcessResult{}, nil, true, err
	}

	task := spec.Task(meta.Size)
	strands, shards := tgt.strandsFor(task, meta.Size)
	dispatch := n.dispatchFor(target)
	lease, err := tgt.mach.Begin(task, strands)
	if err != nil {
		return ProcessResult{}, nil, true, err
	}
	d := lease.Duration()
	res = ProcessResult{
		Service:    spec.Name,
		Target:     target,
		OutputSize: spec.OutputSize(meta.Size),
		MatchID:    -1,
	}
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

	res.Breakdown.InputMove = wire
	res.Breakdown.Exec = dispatch + d
	if strands > 1 {
		n.ops.shardsExecuted.Add(int64(shards))
	}
	if saved := wire + dispatch + d - n.clock.Now().Sub(wireStart); saved > 0 {
		n.ops.overlapSaved.Add(int64(saved))
	}
	return res, data, true, nil
}

// executeDecided runs a decided process operation, hedging it onto the
// decision's top two candidates when speculation is enabled and their
// estimates are within the margin. The first hedge to finish wins; the
// loser is cancelled at its next phase boundary. Under the simulated
// clock the winner is deterministic.
func (n *Node) executeDecided(dec Decision, spec services.Spec, meta ObjectMeta) (ProcessResult, error) {
	cp := n.cfg.ComputePlane
	if !cp.Speculation || len(dec.Candidates) < 2 {
		return n.executeAt(dec.Chosen.Addr, spec, meta)
	}
	second, ok := runnerUp(n.cfg.DecisionPolicy, dec)
	if !ok {
		return n.executeAt(dec.Chosen.Addr, spec, meta)
	}
	if float64(second.Total()) > float64(dec.Chosen.Total())*(1+defaultSpeculationMargin) {
		return n.executeAt(dec.Chosen.Addr, spec, meta)
	}

	n.ops.specLaunches.Add(1)
	// The hedges publish their outcomes while still registered with the
	// clock, and the parent polls the slot as a registered worker too —
	// no deregistered wake-ups, so the winner is deterministic.
	slot := &specSlot{}
	var cancelPrimary, cancelSecondary atomic.Bool
	record := func(o specOutcome) {
		o.at = n.clock.Now()
		slot.publish(o)
	}
	n.spawn(func() {
		res, err := n.executeAtCancellable(dec.Chosen.Addr, spec, meta, &cancelPrimary)
		record(specOutcome{secondary: false, res: res, err: err})
	})
	n.spawn(func() {
		// The stagger is this goroutine's first event, so the hedges
		// serialise through the clock before touching shared state.
		n.clock.Sleep(defaultSpeculationDelay)
		if cancelSecondary.Load() {
			n.ops.specCancels.Add(1)
			record(specOutcome{secondary: true, err: errSpeculationCancelled})
			return
		}
		res, err := n.executeAtCancellable(second.Addr, spec, meta, &cancelSecondary)
		record(specOutcome{secondary: true, res: res, err: err})
	})

	// Poll until a hedge succeeds or both have settled. The tick bounds
	// the extra latency added to the winner's observed total.
	const specPollTick = time.Millisecond
	for {
		snap := slot.snapshot()
		var win *specOutcome
		for i := range snap {
			o := &snap[i]
			if o.err != nil {
				continue
			}
			// Earliest completion wins; a same-tick tie goes to the
			// decision's first choice.
			if win == nil || o.at.Before(win.at) || (o.at.Equal(win.at) && !o.secondary) {
				win = o
			}
		}
		if win != nil {
			// Cancel the loser; it aborts at its next phase boundary and
			// its in-flight phase settles via Node.Flush.
			if win.secondary {
				n.ops.specWins.Add(1)
				cancelPrimary.Store(true)
			} else {
				cancelSecondary.Store(true)
			}
			return win.res, nil
		}
		if len(snap) == 2 {
			// Both hedges failed: report the primary's error.
			for _, o := range snap {
				if !o.secondary {
					return ProcessResult{}, o.err
				}
			}
			return ProcessResult{}, snap[0].err
		}
		n.clock.Sleep(specPollTick)
	}
}

// specOutcome is one hedge's published result, stamped with the virtual
// time it settled.
type specOutcome struct {
	secondary bool
	res       ProcessResult
	err       error
	at        time.Time
}

// specSlot is the outcome slot both hedges publish into and the parent
// polls; see executeDecided.
type specSlot struct {
	mu   sync.Mutex
	outs []specOutcome // guarded by mu
}

func (s *specSlot) publish(o specOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.outs = append(s.outs, o)
}

func (s *specSlot) snapshot() []specOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]specOutcome(nil), s.outs...)
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
