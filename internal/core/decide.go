package core

import (
	"fmt"
	"time"

	"cloud4home/internal/machine"
	"cloud4home/internal/monitor"
	"cloud4home/internal/netsim"
	"cloud4home/internal/policy"
	"cloud4home/internal/services"
)

// LocateTime is the constant target-location time of §III-B ("in our
// current implementation, we assume constant target-location time").
const LocateTime = 10 * time.Millisecond

// Service dispatch overheads: invoking a service means scheduling its VM
// and instantiating the handler. Running in the local control domain is
// cheap; dispatching to another node adds the command exchange, remote VM
// scheduling, and response handling — the fixed cost that makes tiny
// images cheapest to process in place on S1 (Fig 7).
const (
	LocalDispatch  = 300 * time.Millisecond
	RemoteDispatch = 1500 * time.Millisecond
)

// dispatchFor returns the dispatch overhead for executing on target from
// the perspective of node n.
func (n *Node) dispatchFor(target string) time.Duration {
	if target == n.addr {
		return LocalDispatch
	}
	return RemoteDispatch
}

// Decision reports one completed chimeraGetDecision() run. "All results
// shown in Section V include the time for performing this decision
// process": its cost, the per-candidate resource lookups in the key-value
// store included, is charged to the clock and to ProcessBreakdown.Decision.
type Decision struct {
	// Chosen is the selected execution site.
	Chosen policy.ProcCandidate
	// Candidates lists every evaluated site (diagnostics).
	Candidates []policy.ProcCandidate
}

// decideTarget evaluates the service's registered hosts (and, when the
// requester itself can run the service, the requester) and applies the
// node's decision policy. The object currently resides at objLocation
// with the given size; movement costs are estimated for the argument
// object only, as in the paper.
func (n *Node) decideTarget(reg services.Registration, objSize int64, objLocation string) (Decision, error) {
	n.clock.Sleep(LocateTime)

	cands := make([]policy.ProcCandidate, 0, len(reg.Nodes))
	task := reg.Spec.Task(objSize)
	for _, addr := range reg.Nodes {
		c, err := n.evaluate(addr, reg.Spec, task, objSize, objLocation)
		if err != nil {
			continue // unreachable candidate: skip rather than fail
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		return Decision{}, fmt.Errorf("%w: %s has no reachable hosts", ErrServiceNotFound, reg.Spec.Name)
	}
	i, err := n.cfg.DecisionPolicy.Choose(cands)
	if err != nil {
		return Decision{Candidates: cands}, err
	}
	return Decision{Chosen: cands[i], Candidates: cands}, nil
}

// evaluate builds the decision inputs for one candidate: its monitored
// resources (a key-value store lookup, charged), the estimated movement
// cost of the argument object, and the estimated execution time from the
// service profile.
func (n *Node) evaluate(addr string, spec services.Spec, task machine.Task, objSize int64, objLocation string) (policy.ProcCandidate, error) {
	if inst, ok := cloudInstanceName(addr); ok {
		cloud := n.home.Cloud()
		if cloud == nil {
			return policy.ProcCandidate{}, ErrNoCloud
		}
		m, err := cloud.Instance(inst)
		if err != nil {
			return policy.ProcCandidate{}, err
		}
		move := n.estimateMove(objSize, objLocation, addr)
		exec := m.Estimate(task)
		// The decision must predict what execution will do: the home's
		// Workers selects sharded execution on the candidate.
		if strands, _ := n.strandsFor(task, objSize); strands > 1 {
			exec = m.EstimateSharded(task, strands)
		}
		return policy.ProcCandidate{
			Addr:     addr,
			IsCloud:  true,
			Locate:   LocateTime,
			Move:     move,
			Exec:     exec + n.dispatchFor(addr),
			CPULoad:  m.Load(),
			Battery:  1,
			MeetsSLA: m.Spec().MemMB >= spec.MinMemMB,
		}, nil
	}

	res, err := n.resources(addr)
	if err != nil {
		return policy.ProcCandidate{}, err
	}
	exec := estimateExec(res, task)
	if strands, _ := n.strandsFor(task, objSize); strands > 1 {
		exec = estimateExecSharded(res, task, strands)
	}
	return policy.ProcCandidate{
		Addr:     addr,
		Locate:   LocateTime,
		Move:     n.estimateMove(objSize, objLocation, addr),
		Exec:     exec + n.dispatchFor(addr),
		CPULoad:  res.CPULoad,
		Battery:  res.Battery,
		MeetsSLA: res.MemTotalMB >= spec.MinMemMB,
	}, nil
}

// estimateMove predicts the argument object's movement cost from its
// current location to the candidate.
func (n *Node) estimateMove(objSize int64, from, to string) time.Duration {
	if from == to {
		return 0
	}
	cloud := n.home.Cloud()
	_, fromCloud := cloudInstanceName(from)
	fromCloud = fromCloud || (cloud != nil && ObjectMeta{Location: from}.InCloud())
	_, toCloud := cloudInstanceName(to)

	switch {
	case fromCloud && toCloud:
		return 0 // already co-located with the cloud service
	case toCloud:
		if cloud == nil {
			return time.Hour // unreachable; effectively excludes the site
		}
		src := n.nic
		if holder, ok := n.home.Node(from); ok {
			src = holder.nic
		}
		return netsim.EstimateTransfer(netsim.WANUpPath(src, cloud.UpPipe()), objSize)
	case fromCloud:
		if cloud == nil {
			return time.Hour
		}
		dst := n.nic
		if target, ok := n.home.Node(to); ok {
			dst = target.nic
		}
		return netsim.EstimateTransfer(netsim.WANDownPath(cloud.DownPipe(), dst), objSize)
	default:
		holder, ok1 := n.home.Node(from)
		target, ok2 := n.home.Node(to)
		if !ok1 || !ok2 {
			return time.Hour
		}
		return netsim.EstimateTransfer(holder.lanPathTo(target), objSize)
	}
}

// estimateExec predicts a task's runtime on a node from its monitored
// resource record and the service profile — the paper's combination of
// "the key-value entries for each of the possible target nodes" with the
// per-node execution-time information in the service profile.
func estimateExec(res monitor.Resources, task machine.Task) time.Duration {
	if res.Cores <= 0 || res.GHz <= 0 {
		return time.Hour
	}
	par := task.Parallelism
	if par < 1 {
		par = 1
	}
	if par > res.Cores {
		par = res.Cores
	}
	rate := res.GHz * float64(par)
	// Current load steals a proportional share of the cores.
	secs := task.CPUGHzSec / rate * (1 + res.CPULoad)
	if task.MemMB > 0 && task.MemMB > res.MemTotalMB {
		secs *= machine.ThrashFactor
	}
	return time.Duration(secs * float64(time.Second))
}

// estimateExecSharded is estimateExec's counterpart for the sharded
// execution model: strands runnable entities splitting the work evenly,
// each receiving a fair core share — machine.EstimateSharded applied to a
// monitored record instead of the live machine.
func estimateExecSharded(res monitor.Resources, task machine.Task, strands int) time.Duration {
	if res.Cores <= 0 || res.GHz <= 0 {
		return time.Hour
	}
	if strands < 1 {
		strands = 1
	}
	share := 1.0
	if strands > res.Cores {
		share = float64(res.Cores) / float64(strands)
	}
	rate := res.GHz * share
	secs := task.CPUGHzSec / float64(strands) / rate * (1 + res.CPULoad)
	if task.MemMB > 0 && task.MemMB > res.MemTotalMB {
		secs *= machine.ThrashFactor
	}
	return time.Duration(secs * float64(time.Second))
}
