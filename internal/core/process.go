package core

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cloud4home/internal/command"
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
type ProcessBreakdown struct {
	// Decision is the chimeraGetDecision cost (locate + resource
	// lookups); zero when no decision was needed.
	Decision time.Duration
	// InputMove is the argument object's movement cost.
	InputMove time.Duration
	// Exec is the service execution time.
	Exec time.Duration
	// OutputMove is the result's movement back to the requester.
	OutputMove time.Duration
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

// finishProcess is every process operation's exit to the application: it
// stamps the observed total and counts the operation. Ownership: an Output
// that is still a borrow (fdet's annotated image) is copied here, so no
// slice the application can write aliases a stored payload.
func (s *Session) finishProcess(res ProcessResult, start time.Time) (ProcessResult, error) {
	if res.borrowed {
		res.Output, res.borrowed = bytes.Clone(res.Output), false
	}
	res.Breakdown.Total = s.node.clock.Now().Sub(start)
	s.node.ops.processes.Add(1)
	return res, nil
}

// Process explicitly invokes a service on an object already stored in
// VStore++ (§III-B "Process"): the destination is chosen by the decision
// process among all hosts supporting the service.
func (s *Session) Process(name, svcName string, svcID uint32) (ProcessResult, error) {
	start := s.node.clock.Now()
	if err := s.sendCommand(command.TypeProcess, svcID, name); err != nil {
		return ProcessResult{}, err
	}
	meta, _, err := s.node.getMeta(name)
	if err != nil {
		return ProcessResult{}, err
	}
	if err := s.checkAccess(meta); err != nil {
		return ProcessResult{}, err
	}
	reg, err := services.Discover(s.node.home.kv, s.node.id, svcName, svcID)
	if err != nil {
		return ProcessResult{}, fmt.Errorf("%w: %s", ErrServiceNotFound, svcName)
	}
	dec, err := s.node.decideTarget(reg, meta.Size, meta.Location)
	if err != nil {
		return ProcessResult{}, err
	}
	res, err := s.node.executeDecided(dec, reg.Spec, meta)
	if err != nil {
		return ProcessResult{}, err
	}
	res.Mode = ModeDecided
	res.Breakdown.Decision = dec.Elapsed
	return s.finishProcess(res, start)
}

// FetchProcess is the fetch-and-process operation of §III-B: the request
// prefers the requesting node, then the object's owner, and only then
// runs the full decision over the service's registered hosts.
func (s *Session) FetchProcess(name, svcName string, svcID uint32) (ProcessResult, error) {
	start := s.node.clock.Now()
	if err := s.sendCommand(command.TypeFetchProcess, svcID, name); err != nil {
		return ProcessResult{}, err
	}
	meta, _, err := s.node.getMeta(name)
	if err != nil {
		return ProcessResult{}, err
	}
	if err := s.checkAccess(meta); err != nil {
		return ProcessResult{}, err
	}

	// Case 1: "the requesting node is capable of executing the service
	// itself. In that case, the object is simply returned as in the
	// regular fetch operation, and the service processing is performed at
	// the requesting node."
	if s.node.HasService(svcName, svcID) {
		spec, _ := s.node.serviceSpec(svcName, svcID)
		_, data, _, bd, err := s.node.fetchToDom0(name, s.principal, nil)
		if err != nil {
			return ProcessResult{}, err
		}
		if _, err := s.interDomain(meta.Size); err != nil {
			return ProcessResult{}, err
		}
		res, err := s.node.runService(s.node.addr, spec, meta.Size, data)
		if err != nil {
			return ProcessResult{}, err
		}
		res.Mode = ModeRequester
		res.Breakdown.InputMove = bd.InterNode
		return s.finishProcess(res, start)
	}

	// Case 2: "the object owner checks whether it is capable of
	// performing the required service, and if so, returns the output of
	// the operation."
	if owner, ok := s.node.home.Node(meta.Location); ok && owner.HasService(svcName, svcID) {
		spec, _ := owner.serviceSpec(svcName, svcID)
		// Invoking the owner's service from here costs the remote
		// dispatch; the owner-local part is charged inside runService.
		s.node.clock.Sleep(RemoteDispatch - LocalDispatch)
		res, err := owner.runServiceOnLocalObject(spec, meta)
		if err != nil {
			return ProcessResult{}, err
		}
		// Only the (small) output travels back to the requester.
		res.Breakdown.OutputMove = s.node.home.net.Transfer(owner.lanPathTo(s.node), res.OutputSize)
		if _, err := s.interDomain(res.OutputSize); err != nil {
			return ProcessResult{}, err
		}
		res.Mode = ModeOwner
		return s.finishProcess(res, start)
	}

	// Case 3: full decision over the service's registered hosts.
	reg, err := services.Discover(s.node.home.kv, s.node.id, svcName, svcID)
	if err != nil {
		return ProcessResult{}, fmt.Errorf("%w: %s", ErrServiceNotFound, svcName)
	}
	dec, err := s.node.decideTarget(reg, meta.Size, meta.Location)
	if err != nil {
		return ProcessResult{}, err
	}
	res, err := s.node.executeDecided(dec, reg.Spec, meta)
	if err != nil {
		return ProcessResult{}, err
	}
	res.Mode = ModeDecided
	res.Breakdown.Decision = dec.Elapsed
	return s.finishProcess(res, start)
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
	if err := s.sendCommand(command.TypeProcess, svcIDs[0], name); err != nil {
		return ProcessResult{}, err
	}
	meta, _, err := s.node.getMeta(name)
	if err != nil {
		return ProcessResult{}, err
	}
	if err := s.checkAccess(meta); err != nil {
		return ProcessResult{}, err
	}
	specs := make([]services.Spec, len(svcNames))
	for i := range svcNames {
		reg, err := services.Discover(s.node.home.kv, s.node.id, svcNames[i], svcIDs[i])
		if err != nil {
			return ProcessResult{}, fmt.Errorf("%w: %s", ErrServiceNotFound, svcNames[i])
		}
		hosted := false
		for _, h := range reg.Nodes {
			if h == target {
				hosted = true
				break
			}
		}
		if !hosted {
			return ProcessResult{}, fmt.Errorf("%w: %s not deployed at %s", ErrServiceNotFound, svcNames[i], target)
		}
		specs[i] = reg.Spec
	}

	combined := ProcessResult{Target: target, Mode: ModeDecided, MatchID: -1}
	var data []byte
	inputSize := meta.Size
	fold := func(step ProcessResult) {
		combined.Service = step.Service
		combined.Breakdown.Exec += step.Breakdown.Exec
		combined.OutputSize = step.OutputSize
		if step.Output != nil {
			data = step.Output
		}
		if step.Detections > 0 {
			combined.Detections = step.Detections
		}
		if step.MatchID >= 0 {
			combined.MatchID = step.MatchID
		}
		combined.Output, combined.borrowed = step.Output, step.borrowed
		inputSize = step.OutputSize
	}

	// The first step can overlap with the input move; later steps consume
	// the previous step's output, which is already at the target.
	next := 0
	if s.node.cfg.ComputePlane.Overlap {
		step, raw, ok, err := s.node.moveAndRun(target, specs[0], meta)
		if err != nil {
			// ok=false implies err==nil (ineligible path), so a non-nil
			// error always came from an attempted overlapped run.
			return ProcessResult{}, err
		}
		if ok {
			combined.Breakdown.InputMove = step.Breakdown.InputMove
			data = raw
			fold(step)
			next = 1
		}
	}
	if next == 0 {
		raw, moveIn, err := s.node.moveInput(meta, target)
		if err != nil {
			return ProcessResult{}, err
		}
		data = raw
		combined.Breakdown.InputMove = moveIn
	}
	for _, spec := range specs[next:] {
		step, err := s.node.runService(target, spec, inputSize, data)
		if err != nil {
			return ProcessResult{}, err
		}
		fold(step)
	}
	if target != s.node.addr {
		combined.Breakdown.OutputMove = s.node.moveOutput(target, combined.OutputSize)
	}
	return s.finishProcess(combined, start)
}

// serviceSpec returns a locally deployed service's profile.
func (n *Node) serviceSpec(name string, id uint32) (services.Spec, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	spec, ok := n.deployed[services.Key(name, id)]
	return spec, ok
}

// executeAt moves the argument object to the target (if needed), runs the
// service there, and moves the result back to this node.
func (n *Node) executeAt(target string, spec services.Spec, meta ObjectMeta) (ProcessResult, error) {
	return n.executeAtCancellable(target, spec, meta, nil)
}

// executeAtCancellable is executeAt with an optional cancellation flag
// polled at phase boundaries — the losing hedge of a speculative launch
// aborts before starting its next phase (a phase already in flight runs
// to completion; the simulated clock cannot interrupt a charged sleep).
func (n *Node) executeAtCancellable(target string, spec services.Spec, meta ObjectMeta, cancelled *atomic.Bool) (ProcessResult, error) {
	abort := func() (ProcessResult, error) {
		n.ops.specCancels.Add(1)
		return ProcessResult{}, errSpeculationCancelled
	}
	if cancelled != nil && cancelled.Load() {
		return abort()
	}

	// Process-as-pages-arrive: the move and the first execution fuse
	// into one overlapped window when the path is eligible.
	if n.cfg.ComputePlane.Overlap {
		res, _, ok, err := n.moveAndRun(target, spec, meta)
		if err != nil {
			// ok=false implies err==nil (ineligible path), so a non-nil
			// error always came from an attempted overlapped run.
			return ProcessResult{}, err
		}
		if ok {
			if cancelled != nil && cancelled.Load() {
				return abort()
			}
			if target != n.addr {
				res.Breakdown.OutputMove = n.moveOutput(target, res.OutputSize)
			}
			return res, nil
		}
	}

	var bd ProcessBreakdown
	data, moveIn, err := n.moveInput(meta, target)
	if err != nil {
		return ProcessResult{}, err
	}
	bd.InputMove = moveIn
	if cancelled != nil && cancelled.Load() {
		return abort()
	}

	res, err := n.runService(target, spec, meta.Size, data)
	if err != nil {
		return ProcessResult{}, err
	}
	res.Breakdown.InputMove = bd.InputMove
	if cancelled != nil && cancelled.Load() {
		return abort()
	}

	// Result moves back to the requester unless it was produced here.
	if target != n.addr {
		res.Breakdown.OutputMove = n.moveOutput(target, res.OutputSize)
	}
	if cancelled != nil && cancelled.Load() {
		return abort()
	}
	return res, nil
}

// moveInput brings the argument object from its location to the target,
// returning any materialised payload — a read-only borrow, see
// fetchToDom0 — and the movement cost.
func (n *Node) moveInput(meta ObjectMeta, target string) ([]byte, time.Duration, error) {
	if meta.Location == target {
		if holder, ok := n.home.Node(target); ok {
			_, data, err := holder.store.GetRef(meta.Name)
			if err != nil {
				return nil, 0, err
			}
			return data, 0, nil
		}
		return nil, 0, nil // co-located in the cloud: payload stays there
	}

	cloud := n.home.Cloud()
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
		if cloud == nil {
			return nil, 0, ErrNoCloud
		}
		holder, ok := n.home.Node(meta.Location)
		if n.cfg.Faults.Fallback && (!ok || !holder.store.Has(meta.Name)) {
			if n.cloudProbe(cloud, meta.Name) {
				// The cloud already holds a copy: input and target are
				// co-located, no move needed (the probe's HEAD round trip
				// was charged on the wire).
				n.ops.fetchRetries.Add(1)
				return nil, 0, nil
			}
			if whole := n.home.wholeCopies(meta); len(whole) > 0 {
				n.ops.fetchRetries.Add(1)
				holder, ok = whole[0], true
			}
		}
		if !ok {
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
		holder, ok1 := n.home.Node(meta.Location)
		tgt, ok2 := n.home.Node(target)
		if n.cfg.Faults.Fallback && ok2 && (!ok1 || !holder.store.Has(meta.Name)) {
			if whole := n.home.wholeCopies(meta); len(whole) > 0 {
				n.ops.fetchRetries.Add(1)
				holder, ok1 = whole[0], true
			} else if cloud != nil && n.cloudProbe(cloud, meta.Name) {
				// Last rung: pull the input down from the cloud straight to
				// the target (after the probe's charged HEAD round trip).
				n.ops.fetchRetries.Add(1)
				_, data, d, err := cloud.FetchObject(tgt.nic, meta.Name)
				return data, d, err
			}
		}
		if !ok1 || !ok2 {
			return nil, 0, fmt.Errorf("%w: %q (holder or target gone)", ErrObjectNotFound, meta.Name)
		}
		n.home.net.Message(n.lanPathTo(holder)) // request to the owner
		_, data, err := holder.store.GetRef(meta.Name)
		if err != nil {
			return nil, 0, err
		}
		d := n.home.net.Transfer(holder.lanPathTo(tgt), meta.Size)
		return data, d, nil
	}
}

// smallResult is the size below which a service result piggybacks on the
// response message instead of opening a dedicated transfer (match IDs,
// detection coordinates, acknowledgements).
const smallResult = 64 << 10

// moveOutput charges the result object's trip back to this node.
func (n *Node) moveOutput(target string, outputSize int64) time.Duration {
	if _, isCloud := cloudInstanceName(target); isCloud {
		cloud := n.home.Cloud()
		if cloud == nil {
			return 0
		}
		path := wanDownPathFor(n, cloud)
		if outputSize < smallResult {
			return n.home.net.Message(path)
		}
		return n.home.net.Transfer(path, outputSize)
	}
	if peer, ok := n.home.Node(target); ok {
		path := peer.lanPathTo(n)
		if outputSize < smallResult {
			return n.home.net.Message(path)
		}
		return n.home.net.Transfer(path, outputSize)
	}
	return 0
}

// runService executes the service's task on the target machine and, when
// a payload is materialised, runs the corresponding kernel: it starts at
// dispatch and is joined once the dispatch and exec sleeps are over (see
// startKernel).
func (n *Node) runService(target string, spec services.Spec, inputSize int64, data []byte) (ProcessResult, error) {
	res := ProcessResult{
		Service:    spec.Name,
		Target:     target,
		OutputSize: spec.OutputSize(inputSize),
		MatchID:    -1,
	}
	k := n.startKernel(spec, data, res.OutputSize)
	exec, err := n.execService(target, spec, inputSize)
	if err := k.join(&res, err); err != nil {
		return ProcessResult{}, err
	}
	res.Breakdown.Exec = exec
	return res, nil
}

// execService charges the service's invocation on the target machine —
// dispatch, then the task's execution — and returns their sum.
func (n *Node) execService(target string, spec services.Spec, inputSize int64) (time.Duration, error) {
	task := spec.Task(inputSize)

	// Service invocation overhead: VM scheduling + handler instantiation.
	dispatch := n.dispatchFor(target)
	n.clock.Sleep(dispatch)

	var execDur time.Duration
	if inst, ok := cloudInstanceName(target); ok {
		cloud := n.home.Cloud()
		if cloud == nil {
			return 0, ErrNoCloud
		}
		m, err := cloud.Instance(inst)
		if err != nil {
			return 0, err
		}
		strands, shards := n.strandsFor(task, inputSize)
		if strands > 1 {
			execDur, err = m.ExecSharded(task, strands)
			n.ops.shardsExecuted.Add(int64(shards))
		} else {
			execDur, err = m.Exec(task)
		}
		if err != nil {
			return 0, err
		}
	} else {
		host, ok := n.home.Node(target)
		if !ok {
			return 0, fmt.Errorf("core: run %s: target %q gone", spec.Name, target)
		}
		var err error
		strands, shards := host.strandsFor(task, inputSize)
		if strands > 1 {
			execDur, err = host.mach.ExecSharded(task, strands)
			n.ops.shardsExecuted.Add(int64(shards))
		} else {
			execDur, err = host.mach.Exec(task)
		}
		if err != nil {
			return 0, err
		}
	}
	return dispatch + execDur, nil
}

// runServiceOnLocalObject is the owner-execution path: the object is
// already local, so only execution (plus kernel) happens here.
func (n *Node) runServiceOnLocalObject(spec services.Spec, meta ObjectMeta) (ProcessResult, error) {
	_, data, err := n.store.GetRef(meta.Name)
	if err != nil {
		return ProcessResult{}, err
	}
	return n.runService(n.addr, spec, meta.Size, data)
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
	n.ops.kernels.Add(1)
	go k.exec()
	return k
}

func (k *kernelRun) run() {
	k.err = k.n.applyKernel(k.spec, k.data, &k.res)
	k.done <- struct{}{}
}

// join waits for the kernel and folds its result into res. It returns
// opErr, the error the op hit while the kernel ran, if there was one, and
// the kernel's error otherwise: every exit of an op that started a kernel
// joins it. The wait is a plain host wait, never vclock.Virtual.Block: the
// caller stays a runnable worker while it waits, so virtual time cannot
// move on until the kernel is done, and every virtual result is what it
// would be had the kernel run inline.
func (k *kernelRun) join(res *ProcessResult, opErr error) error {
	if k == nil {
		return opErr
	}
	<-k.done
	kernelErr := k.err
	res.Output, res.borrowed, res.OutputSize = k.res.Output, k.res.borrowed, k.res.OutputSize
	res.Detections, res.MatchID = k.res.Detections, k.res.MatchID
	k.n.ops.kernels.Add(-1)
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
// kernelRun's goroutine, so it reads no state guarded by n.mu.
func (n *Node) applyKernel(spec services.Spec, data []byte, res *ProcessResult) error {
	switch spec.Name {
	case "fdet":
		hits, err := services.DetectFaces(data)
		if err != nil {
			return err
		}
		res.Detections = len(hits)
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
