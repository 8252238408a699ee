package core

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"cloud4home/internal/command"
	"cloud4home/internal/machine"
	"cloud4home/internal/netsim"
	"cloud4home/internal/services"
)

// ProcessMode records which of §III-B's three cases handled a
// fetch-and-process request.
type ProcessMode int

// Execution modes.
const (
	// ModeRequester: the requesting node ran the service itself after a
	// plain fetch.
	ModeRequester ProcessMode = iota + 1
	// ModeOwner: the object's owner ran the service and returned only the
	// output.
	ModeOwner
	// ModeDecided: the decision process picked another host (possibly in
	// the remote cloud).
	ModeDecided
)

// String renders the mode name.
func (m ProcessMode) String() string {
	switch m {
	case ModeRequester:
		return "requester"
	case ModeOwner:
		return "owner"
	case ModeDecided:
		return "decided"
	default:
		return fmt.Sprintf("ProcessMode(%d)", int(m))
	}
}

// ProcessBreakdown is the per-phase cost profile of a process operation.
// Every virtual nanosecond of the operation is charged to exactly one
// phase: Decision + InputMove + Exec + OutputMove − Overlap == Total.
type ProcessBreakdown struct {
	// Decision is everything before the input moves: the command packet,
	// the metadata lookup, service discovery and the chimeraGetDecision
	// cost (locate + resource lookups), plus a hedged launch's stagger
	// and the wait for its outcome.
	Decision time.Duration
	// InputMove is the argument object's movement to the target: the
	// request to its holder and the move, or in §III-B case 1 the fetch
	// into this dom0 and on into the guest.
	InputMove time.Duration
	// Exec is the service's dispatch and execution over every step,
	// with case 2's remote-dispatch premium.
	Exec time.Duration
	// OutputMove is the result's movement back to the requester; in
	// case 2, the owner's reply and its move into the guest.
	OutputMove time.Duration
	// Overlap is the time the overlapped first step saved: InputMove and
	// Exec carry their full serial costs, and the fused window took
	// Overlap less. Zero unless Config.Overlap applied.
	Overlap time.Duration
	// Total is the caller-observed latency.
	Total time.Duration
}

// ProcessResult reports a completed process operation.
type ProcessResult struct {
	Service string
	// Target is where the service ran (node addr or "cloud:<instance>").
	Target string
	// Mode says which §III-B case applied.
	Mode ProcessMode
	// OutputSize is the result object's size (from the service profile).
	OutputSize int64
	// Output is the materialised result, when the input had a payload:
	// the converted stream for x264, the input for fdet (annotated
	// image), the match ID digits for frec.
	Output []byte
	// Detections is the fdet hit count (materialised inputs only).
	Detections int
	// MatchID is the frec best-match index (materialised inputs only).
	MatchID int
	// Breakdown is the phase cost profile.
	Breakdown ProcessBreakdown

	// borrowed marks an Output that still aliases the service's input — a
	// borrow of a store's bytes — until finishProcess copies it.
	borrowed bool
}

// plan is one process operation as plain data: the object, where its
// service steps run and whose node runs them, and the §III-B case, which
// says how the input arrives there and how the output returns. The
// Session's plan builders (Process, FetchProcess's three cases,
// ProcessPipelineAt) fill one on the stack; Node.execute runs it.
type plan struct {
	start  time.Time // when the operation began; Decision runs from here
	meta   ObjectMeta
	target string // where every step runs: a node address or "cloud:<instance>"
	// runner charges the dispatch and counts the shards and kernels, and
	// its training set is frec's: the owner in case 2, else the requester.
	runner *Node
	spec   services.Spec   // the first (or only) step
	more   []services.Spec // the steps after it, each on the previous output
	// mode is the case. ModeRequester: a regular fetch into this dom0 and
	// on into the guest, then the requester runs the service. ModeOwner:
	// the owner runs it on its own copy, invoked from here at the
	// remote-dispatch premium, and replies over the LAN into the guest.
	// ModeDecided: the input moves to the target, fused with the first
	// step when overlap applies, and the output moves back.
	mode  ProcessMode
	guest *Session // the requester's guest, for case 1's fetch and case 2's reply
}

// begin is every process operation's preamble: the command packet, the
// object's metadata, and the session's access to it.
func (s *Session) begin(t command.Type, svcID uint32, name string) (ObjectMeta, error) {
	if err := s.sendCommand(t, svcID, name); err != nil {
		return ObjectMeta{}, err
	}
	meta, _, err := s.node.getMeta(name)
	if err != nil {
		return ObjectMeta{}, err
	}
	return meta, meta.checkAccess(s.principal)
}

// finishProcess is every process operation's exit to the application: it
// stamps the observed total and counts the operation. Ownership: an Output
// that is still a borrow (fdet's annotated image) is copied here, so no
// slice the application can write aliases a stored payload.
func (s *Session) finishProcess(res ProcessResult, err error, start time.Time) (ProcessResult, error) {
	if err != nil {
		return ProcessResult{}, err
	}
	if res.borrowed {
		res.Output, res.borrowed = bytes.Clone(res.Output), false
	}
	res.Breakdown.Total = s.node.clock.Now().Sub(start)
	s.node.ops.Processes++
	return res, nil
}

// Process explicitly invokes a service on an object already stored in
// VStore++ (§III-B "Process"): the destination is chosen by the decision
// process among all hosts supporting the service.
func (s *Session) Process(name, svcName string, svcID uint32) (ProcessResult, error) {
	start := s.node.clock.Now()
	meta, err := s.begin(command.TypeProcess, svcID, name)
	if err != nil {
		return ProcessResult{}, err
	}
	return s.decided(meta, svcName, svcID, start)
}

// FetchProcess is the fetch-and-process operation of §III-B: the request
// prefers the requesting node, then the object's owner, and only then
// runs the full decision over the service's registered hosts.
func (s *Session) FetchProcess(name, svcName string, svcID uint32) (ProcessResult, error) {
	start := s.node.clock.Now()
	meta, err := s.begin(command.TypeFetchProcess, svcID, name)
	if err != nil {
		return ProcessResult{}, err
	}
	p := plan{start: start, meta: meta, guest: s}
	if spec, ok := s.node.serviceSpec(svcName, svcID); ok {
		// Case 1: "the requesting node is capable of executing the service
		// itself. In that case, the object is simply returned as in the
		// regular fetch operation, and the service processing is performed
		// at the requesting node."
		p.spec, p.target, p.runner, p.mode = spec, s.node.addr, s.node, ModeRequester
	} else if owner, ok := s.node.home.Node(meta.Location); ok && owner.HasService(svcName, svcID) {
		// Case 2: "the object owner checks whether it is capable of
		// performing the required service, and if so, returns the output
		// of the operation."
		p.spec, _ = owner.serviceSpec(svcName, svcID)
		p.target, p.runner, p.mode = owner.addr, owner, ModeOwner
	} else {
		// Case 3: full decision over the service's registered hosts.
		return s.decided(meta, svcName, svcID, start)
	}
	res, err := s.node.execute(&p, nil)
	return s.finishProcess(res, err, start)
}

// decided is Process and FetchProcess's case 3: discover the service's
// hosts, decide among them, and run there, hedged when speculation
// applies.
func (s *Session) decided(meta ObjectMeta, svcName string, svcID uint32, start time.Time) (ProcessResult, error) {
	n := s.node
	reg, err := n.registration(svcName, svcID)
	if err != nil {
		return ProcessResult{}, fmt.Errorf("%w: %s", ErrServiceNotFound, svcName)
	}
	dec, err := n.decideTarget(reg, meta.Size, meta.Location)
	if err != nil {
		return ProcessResult{}, err
	}
	p := plan{start: start, meta: meta, target: dec.Chosen.Addr, runner: n, spec: reg.Spec, mode: ModeDecided}
	res, err := n.executeDecided(dec, &p)
	return s.finishProcess(res, err, start)
}

// ProcessAt invokes a service on a stored object at an explicit target
// (a node address or "cloud:<instance>"), bypassing the decision process.
// The evaluation harness uses it to measure every placement of Fig 7.
func (s *Session) ProcessAt(name, svcName string, svcID uint32, target string) (ProcessResult, error) {
	return s.ProcessPipelineAt(name, []string{svcName}, []uint32{svcID}, target)
}

// ProcessPipelineAt runs a multi-step service pipeline (e.g. FDet
// followed by FRec) on a stored object at one explicit target: the input
// moves to the target once, every step executes there, and the final
// result returns to the requester — the home-surveillance pipeline of
// §III-B's Process example.
func (s *Session) ProcessPipelineAt(name string, svcNames []string, svcIDs []uint32, target string) (ProcessResult, error) {
	if len(svcNames) == 0 || len(svcNames) != len(svcIDs) {
		return ProcessResult{}, fmt.Errorf("core: pipeline needs matching service name/id lists")
	}
	start := s.node.clock.Now()
	meta, err := s.begin(command.TypeProcess, svcIDs[0], name)
	if err != nil {
		return ProcessResult{}, err
	}
	specs := make([]services.Spec, len(svcNames))
	for i := range svcNames {
		reg, err := s.node.registration(svcNames[i], svcIDs[i])
		if err != nil {
			return ProcessResult{}, fmt.Errorf("%w: %s", ErrServiceNotFound, svcNames[i])
		}
		if !slices.Contains(reg.Nodes, target) {
			return ProcessResult{}, fmt.Errorf("%w: %s not deployed at %s", ErrServiceNotFound, svcNames[i], target)
		}
		specs[i] = reg.Spec
	}
	p := plan{start: start, meta: meta, target: target, runner: s.node, spec: specs[0], more: specs[1:], mode: ModeDecided}
	res, err := s.node.execute(&p, nil)
	return s.finishProcess(res, err, start)
}

// serviceSpec returns a locally deployed service's profile.
//
// c4h:hotpath
func (n *Node) serviceSpec(name string, id uint32) (services.Spec, bool) {
	spec, ok := n.deployed[serviceRef{name, id}]
	return spec, ok
}

// execute runs a plan from this node, the requester: the input arrives at
// the target, every step runs there in order, and the output returns.
// Each phase is charged the virtual time it took, from the plan's start
// on (see ProcessBreakdown). A non-nil cancelled flag is polled at each
// phase boundary, so the losing hedge of a speculative launch aborts
// before its next phase (a phase in flight runs to completion; the clock
// cannot interrupt a charged sleep).
//
// c4h:hotpath
func (n *Node) execute(p *plan, cancelled *bool) (ProcessResult, error) {
	if n.cancelled(cancelled) {
		return ProcessResult{}, errSpeculationCancelled
	}
	mark := n.clock.Now()
	res := ProcessResult{Target: p.target, Mode: p.mode, MatchID: -1}
	bd := &res.Breakdown
	bd.Decision = mark.Sub(p.start)
	var data []byte
	size, next := p.meta.Size, 0
	switch p.mode {
	case ModeRequester:
		_, raw, _, _, err := n.fetchToDom0(p.meta.Name, p.guest.principal)
		if err != nil {
			return ProcessResult{}, err
		}
		if _, err := p.guest.interDomain(size); err != nil {
			return ProcessResult{}, err
		}
		data, bd.InputMove = raw, n.lap(&mark)
	case ModeOwner:
		// Invoking the owner's service from here costs the remote
		// dispatch; the owner-local part is charged with its run.
		n.clock.Sleep(RemoteDispatch - LocalDispatch)
		_, raw, err := p.runner.store.GetRef(p.meta.Name)
		if err != nil {
			return ProcessResult{}, err
		}
		data, bd.Exec = raw, n.lap(&mark)
	default:
		// Process-as-pages-arrive: with Overlap the first step is the
		// stage the input move feeds; a move that crosses no LAN wire into
		// the target never begins it, and the step runs after the move.
		var first *firstStep
		var sink *domainSink
		if tgt, ok := n.home.Node(p.target); ok && n.home.cfg.Overlap && size > 0 {
			first = n.overlapFirst(tgt, p.spec, size)
			sink = &first.domainSink
		}
		raw, _, err := n.moveInput(p.meta, p.target, sink)
		data, bd.InputMove = raw, n.lap(&mark)
		if first != nil && first.lease != nil {
			var step ProcessResult
			if step, err = n.runFirst(p, first, raw, err); err == nil {
				data, size, next = res.fold(step, raw), res.OutputSize, 1
				bd.Exec = step.Breakdown.Exec
				bd.Overlap = bd.Exec - n.lap(&mark)
				n.ops.OverlapSaved += max(bd.Overlap, 0)
			}
		}
		if err != nil {
			return ProcessResult{}, err
		}
	}
	if n.cancelled(cancelled) {
		return ProcessResult{}, errSpeculationCancelled
	}
	for i := next; i <= len(p.more); i++ {
		spec := p.spec
		if i > 0 {
			spec = p.more[i-1]
		}
		step, err := p.runner.runService(p.target, spec, size, data)
		if err != nil {
			return ProcessResult{}, err
		}
		data, size = res.fold(step, data), res.OutputSize
		bd.Exec += n.lap(&mark)
		if n.cancelled(cancelled) {
			return ProcessResult{}, errSpeculationCancelled
		}
	}
	switch {
	case p.mode == ModeOwner:
		n.home.net.Transfer(p.runner.lanPathTo(n), res.OutputSize)
		if _, err := p.guest.interDomain(res.OutputSize); err != nil {
			return ProcessResult{}, err
		}
	case p.target != n.addr:
		n.moveOutput(p.target, res.OutputSize)
	}
	bd.OutputMove = n.lap(&mark)
	// An overlapped run is not polled after its output move: a hedge
	// cancelled during that move still settles as an uncounted success.
	if next == 0 && n.cancelled(cancelled) {
		return ProcessResult{}, errSpeculationCancelled
	}
	return res, nil
}

// cancelled polls a hedge's cancellation flag, counting the abort.
func (n *Node) cancelled(flag *bool) bool {
	if flag == nil || !*flag {
		return false
	}
	n.ops.SpecCancels++
	return true
}

// lap returns the virtual time since *mark and moves the mark to now.
func (n *Node) lap(mark *time.Time) time.Duration {
	now := n.clock.Now()
	d := now.Sub(*mark)
	*mark = now
	return d
}

// fold takes one step's result into the plan's and returns the next
// step's input: the step's output when it has one, else its own input.
func (r *ProcessResult) fold(step ProcessResult, input []byte) []byte {
	r.Service, r.OutputSize = step.Service, step.OutputSize
	r.Output, r.borrowed = step.Output, step.borrowed
	if step.Detections > 0 {
		r.Detections = step.Detections
	}
	if step.MatchID >= 0 {
		r.MatchID = step.MatchID
	}
	if step.Output != nil {
		return step.Output
	}
	return input
}

// moveInput brings the argument object from its location to the target,
// returning any materialised payload — a read-only borrow, see
// fetchToDom0 — and the movement cost. Into a home node it is one pull
// feeding a non-nil sink; a cloud on either side leaves the sink alone.
func (n *Node) moveInput(meta ObjectMeta, target string, sink *domainSink) ([]byte, time.Duration, error) {
	_, targetCloud := cloudInstanceName(target)

	// Fetch the payload (and charge the move) along the right path.
	switch {
	case meta.InCloud() && targetCloud:
		return nil, 0, nil // both sides in the cloud
	case meta.InCloud():
		backend, err := n.home.backendFor(meta.Backend)
		if err != nil {
			return nil, 0, err
		}
		dst := n.nic
		if t, ok := n.home.Node(target); ok {
			dst = t.nic
		}
		_, data, d, err := backend.FetchObject(dst, meta.Name)
		return data, d, err
	case targetCloud:
		cloud := n.home.Cloud()
		if cloud == nil {
			return nil, 0, ErrNoCloud
		}
		holder, inCloud := n.holderFor(n.home, meta, cloud)
		if inCloud {
			// The cloud already holds a copy: input and target are
			// co-located, no move needed (the probe's HEAD round trip was
			// charged on the wire).
			return nil, 0, nil
		}
		if holder == nil {
			return nil, 0, fmt.Errorf("%w: %q (holder gone)", ErrObjectNotFound, meta.Name)
		}
		_, data, err := holder.store.GetRef(meta.Name)
		if err != nil {
			return nil, 0, err
		}
		// Transient upload of the argument object to the instance.
		d := n.home.net.Transfer(wanUpPathFor(holder, cloud), meta.Size)
		return data, d, nil
	default:
		// A pull into the target's dom0: a copy already there, the
		// primary, then under Fallback a surviving whole copy or k
		// shards, then the cloud.
		tgt, ok := n.home.Node(target)
		if !ok {
			return nil, 0, fmt.Errorf("%w: %q (target %q gone)", ErrObjectNotFound, meta.Name, target)
		}
		var bd FetchBreakdown
		data, _, err := n.pull(tgt, meta, n.fetchLadder()&^(rungCache|rungStriped), sink, &bd)
		return data, bd.InterNode, err
	}
}

// smallResult is the size below which a service result piggybacks on the
// response message instead of opening a dedicated transfer (match IDs,
// detection coordinates, acknowledgements).
const smallResult = 64 << 10

// moveOutput charges the result object's trip back to this node.
func (n *Node) moveOutput(target string, outputSize int64) {
	var path *netsim.Path
	if _, isCloud := cloudInstanceName(target); isCloud && n.home.Cloud() != nil {
		path = wanDownPathFor(n, n.home.Cloud())
	} else if peer, ok := n.home.Node(target); ok {
		path = peer.lanPathTo(n)
	} else {
		return
	}
	if outputSize < smallResult {
		n.home.net.Message(path)
	} else {
		n.home.net.Transfer(path, outputSize)
	}
}

// runService charges the service's invocation on the target machine —
// dispatch, then the task's execution — and, when a payload is
// materialised, runs the corresponding kernel: it starts at dispatch and
// is joined once the dispatch and exec sleeps are over (see startKernel).
// The home's Workers sizes its strands, on a node and a cloud instance
// alike.
func (n *Node) runService(target string, spec services.Spec, inputSize int64, data []byte) (ProcessResult, error) {
	res := stepResult(spec, target, inputSize)
	k := n.startKernel(spec, data, res.OutputSize)
	task := spec.Task(inputSize)

	// Service invocation overhead: VM scheduling + handler instantiation.
	n.clock.Sleep(n.dispatchFor(target))

	var m *machine.Machine
	var err error
	if inst, ok := cloudInstanceName(target); ok {
		if cloud := n.home.Cloud(); cloud == nil {
			err = ErrNoCloud
		} else {
			m, err = cloud.Instance(inst)
		}
	} else if host, ok := n.home.Node(target); ok {
		m = host.mach
	} else {
		err = fmt.Errorf("core: run %s: target %q gone", spec.Name, target)
	}
	if err == nil {
		if strands, shards := n.strandsFor(task, inputSize); strands > 1 {
			_, err = m.ExecSharded(task, strands)
			n.ops.ShardsExecuted += int64(shards)
		} else {
			_, err = m.Exec(task)
		}
	}
	if err := k.join(&res, err); err != nil {
		return ProcessResult{}, err
	}
	return res, nil
}

// stepResult is one step's result before its kernel has run.
func stepResult(spec services.Spec, target string, inputSize int64) ProcessResult {
	return ProcessResult{Service: spec.Name, Target: target, OutputSize: spec.OutputSize(inputSize), MatchID: -1}
}

// kernelRun is one service kernel running on a host goroutine of its own
// while the actor that started it sleeps through the service's virtual
// dispatch and exec time. The kernel never touches the clock; res holds
// only the fields applyKernel sets, until join folds them into the
// caller's result.
type kernelRun struct {
	n    *Node
	spec services.Spec
	data []byte
	res  ProcessResult
	err  error
	done chan struct{} // one slot: exec sends once, join receives
	exec func()        // k.run, bound once so that `go k.exec()` allocates nothing
}

// kernelRuns recycles kernelRuns: a fresh channel and goroutine closure
// per op would cost home-process more allocations than the overlap saves.
// Actors take and return the runs; a run crosses to its kernel goroutine
// at `go k.exec()` and back at join's receive on done, so the pool never
// holds a run a kernel goroutine still uses.
var kernelRuns = sync.Pool{New: func() any {
	k := &kernelRun{done: make(chan struct{}, 1)}
	k.exec = k.run
	return k
}}

// startKernel starts spec's kernel on data, when a payload is
// materialised, and returns the run to join; nil (no payload) joins at
// once. outputSize is the result's size until the kernel says otherwise.
func (n *Node) startKernel(spec services.Spec, data []byte, outputSize int64) *kernelRun {
	if len(data) == 0 {
		return nil
	}
	k := kernelRuns.Get().(*kernelRun)
	k.n, k.spec, k.data = n, spec, data
	k.res = ProcessResult{OutputSize: outputSize, MatchID: -1}
	n.kernels++
	go k.exec() // joined by join, which receives on k.done
	return k
}

func (k *kernelRun) run() {
	k.err = k.n.applyKernel(k.spec, k.data, &k.res)
	k.done <- struct{}{}
}

// join waits for the kernel and folds its result into res. It returns
// opErr, the error the op hit while the kernel ran, if there was one, and
// the kernel's error otherwise: every exit of an op that started a kernel
// joins it. The wait is a plain host wait by the actor holding the turn:
// no other actor runs and virtual time cannot move on until the kernel is
// done, so every virtual result is what it would be had the kernel run
// inline.
func (k *kernelRun) join(res *ProcessResult, opErr error) error {
	if k == nil {
		return opErr
	}
	<-k.done
	kernelErr := k.err
	res.Output, res.borrowed, res.OutputSize = k.res.Output, k.res.borrowed, k.res.OutputSize
	res.Detections, res.MatchID = k.res.Detections, k.res.MatchID
	k.n.kernels--
	*k = kernelRun{done: k.done, exec: k.exec} // a pooled run pins no payload
	kernelRuns.Put(k)
	if kernelErr != nil && opErr == nil {
		return kernelErr
	}
	return opErr
}

// applyKernel performs the actual computation for materialised payloads.
// The training set for recognition is "available on any of the processing
// locations" (the paper's assumption), so the requester's set is used.
// data is a read-only borrow; the kernels only read it. It runs on a
// kernelRun's goroutine, off the clock, while other actors hold the turn:
// so of the node's state it reads only n.addr, fixed at AddNode, and the
// training set through its atomic pointer.
func (n *Node) applyKernel(spec services.Spec, data []byte, res *ProcessResult) error {
	switch spec.Name {
	case "fdet":
		faces, err := services.CountFaces(data)
		if err != nil {
			return err
		}
		res.Detections = faces
		// The annotated image continues down the pipeline as the borrow
		// it came in as.
		res.Output, res.borrowed = data, true
		res.OutputSize = int64(len(data))
	case "frec":
		training := n.training.Load()
		if training == nil || len(training.imgs) == 0 {
			return fmt.Errorf("core: frec: no training set installed on %s", n.addr)
		}
		best, err := training.counted().Recognize(data)
		if err != nil {
			return err
		}
		res.MatchID = best
		res.Output = []byte(strconv.Itoa(best))
		res.OutputSize = int64(len(res.Output))
	case "x264":
		out, err := services.ConvertVideo(data)
		if err != nil {
			return err
		}
		res.Output = out
		res.OutputSize = int64(len(out))
	default:
		// Unknown service: cost model only, no kernel.
	}
	return nil
}
