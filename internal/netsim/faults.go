package netsim

import (
	"fmt"
	"sort"
	"time"

	"cloud4home/internal/vclock"
)

// FaultKind is one scripted availability event.
type FaultKind int

// Fault kinds.
const (
	// FaultCrash removes the named node abruptly: no farewell, local
	// payloads lost, survivors repair from replicated state.
	FaultCrash FaultKind = iota + 1
	// FaultRejoin adds the named node back, empty, as a fresh joiner.
	FaultRejoin
)

// String renders the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultRejoin:
		return "rejoin"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultEvent crashes or rejoins one named node at a virtual-time offset.
type FaultEvent struct {
	// At is the event's offset from the moment the schedule starts.
	At time.Duration
	// Node is the target's home-network address.
	Node string
	// Kind is crash or rejoin.
	Kind FaultKind
}

// FaultSchedule is a scripted sequence of crashes and rejoins. Driven by
// the virtual clock it makes failure scenarios fully deterministic: the
// same schedule against the same seed replays bit-identically.
type FaultSchedule struct {
	Events []FaultEvent
}

// Validate reports schedule errors.
func (s FaultSchedule) Validate() error {
	for i, e := range s.Events {
		if e.At < 0 {
			return fmt.Errorf("netsim: fault event %d at negative offset %v", i, e.At)
		}
		if e.Node == "" {
			return fmt.Errorf("netsim: fault event %d names no node", i)
		}
		if e.Kind != FaultCrash && e.Kind != FaultRejoin {
			return fmt.Errorf("netsim: fault event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// Ordered returns the events in firing order: by offset, ties broken by
// node address and then kind, so two schedules listing the same events
// always fire identically.
func (s FaultSchedule) Ordered() []FaultEvent {
	out := make([]FaultEvent, len(s.Events))
	copy(out, s.Events)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// RunFaults plays the schedule against the clock: it sleeps to each
// event's virtual time (offsets are relative to the call instant) and
// applies it. Run it as an actor alongside the workload
// it disrupts. The first apply error aborts the remaining events.
func RunFaults(clock vclock.Clock, s FaultSchedule, apply func(FaultEvent) error) error {
	if err := s.Validate(); err != nil {
		return err
	}
	start := clock.Now()
	for _, e := range s.Ordered() {
		if d := start.Add(e.At).Sub(clock.Now()); d > 0 {
			clock.Sleep(d)
		}
		if err := apply(e); err != nil {
			return fmt.Errorf("netsim: fault %s %s at %v: %w", e.Kind, e.Node, e.At, err)
		}
	}
	return nil
}
