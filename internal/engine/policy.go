package engine

// Scheduling policies: the order in which a woken device services the stream
// buffers of a service round. The policies operate uniformly on the unified
// scheduling core — a single-stream run is the K=1 case, where every policy
// degenerates to "service the one stream" — and the ordering decision reuses
// the core's scratch so the steady-state scheduling loop allocates nothing.

import (
	"fmt"
	"math"
)

// Policy selects the order in which a woken device services the stream
// buffers. The string values are the wire and CLI spellings.
type Policy string

// The scheduling policies.
const (
	// PolicyRoundRobin is the paper's gated cycle model: every wake-up
	// services all streams in fixed declaration order.
	PolicyRoundRobin Policy = "round-robin"
	// PolicyMostUrgent services the streams in ascending time-to-empty at
	// the moment of the wake-up (an EDF-like variant: the buffer closest to
	// starving is refilled first).
	PolicyMostUrgent Policy = "most-urgent"
	// PolicyPriority services higher-priority streams first (recordings
	// guarding a live signal before best-effort playback, for example),
	// breaking ties within a priority class by ascending time-to-empty.
	// Stream priorities come from StreamConfig.Priority; with equal
	// priorities it behaves exactly like PolicyMostUrgent.
	PolicyPriority Policy = "priority"
)

// Validate checks that the policy is one of the known schedulers.
func (p Policy) Validate() error {
	switch p {
	case PolicyRoundRobin, PolicyMostUrgent, PolicyPriority:
		return nil
	}
	return fmt.Errorf("engine: unknown scheduling policy %q (want %q, %q or %q)",
		string(p), string(PolicyRoundRobin), string(PolicyMostUrgent), string(PolicyPriority))
}

// ParsePolicy canonicalizes a policy spelling: the canonical names, the short
// aliases "rr", "edf" and "prio", or empty for the round-robin default. It is
// the single alias table behind both the CLI flag and the wire field.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "rr", string(PolicyRoundRobin):
		return PolicyRoundRobin, nil
	case "edf", string(PolicyMostUrgent):
		return PolicyMostUrgent, nil
	case "prio", string(PolicyPriority):
		return PolicyPriority, nil
	default:
		return "", fmt.Errorf("engine: unknown scheduling policy %q (want \"round-robin\"/\"rr\", \"most-urgent\"/\"edf\" or \"priority\"/\"prio\")", s)
	}
}

// serviceOrder returns the order in which the given policy services the
// streams at the current moment: declaration order for round-robin, ascending
// time-to-empty for most-urgent (ties keep declaration order), descending
// priority class with most-urgent tie-breaks for priority. The returned slice
// is scratch owned by the core — valid until the next serviceOrder call — so
// the per-round scheduling decision allocates nothing.
func (m *MultiCore) serviceOrder(p Policy) []int {
	order := m.order
	for i := range order {
		order[i] = i
	}
	if p == PolicyRoundRobin || p == "" {
		return order
	}
	// Stable insertion sort: stream counts are small (a handful of buffers
	// per device), and unlike sort.SliceStable it keeps the steady-state
	// scheduling loop allocation-free.
	for i := 1; i < len(order); i++ {
		v := order[i]
		j := i
		for ; j > 0 && m.before(p, v, order[j-1]); j-- {
			order[j] = order[j-1]
		}
		order[j] = v
	}
	return order
}

// before reports whether stream a must be serviced strictly before stream b
// under the given policy; equal keys keep declaration order through the
// stable sort.
func (m *MultiCore) before(p Policy, a, b int) bool {
	if p == PolicyPriority {
		if pa, pb := m.streams[a].priority, m.streams[b].priority; pa != pb {
			return pa > pb
		}
	}
	// Most-urgent order — and the tie-break within a priority class: the
	// buffer closest to running dry is serviced first.
	return m.urgency(a) < m.urgency(b)
}

// urgency returns the seconds until stream i's buffer runs dry at its current
// demand (infinite for a momentarily idle stream).
func (m *MultiCore) urgency(i int) float64 {
	st := m.streams[i]
	if !st.rate.Positive() {
		return math.Inf(1)
	}
	return st.rate.TimeFor(st.level).Seconds()
}
