package engine

import (
	"reflect"
	"testing"

	"memstream/internal/device"
	"memstream/internal/units"
)

// runCycles drives a one-stream core through n refill cycles of the
// simulator's wake/position/refill/shutdown loop.
func runCycles(m *MultiCore, n int) {
	for i := 0; i < n; i++ {
		m.drainToWake(device.StateStandby, units.Hour)
		m.positioning(0)
		m.refillStream(0)
		m.shutdown()
	}
}

func TestCoreResetReplaysIdentically(t *testing.T) {
	m := NewMultiCore(NewMEMS(device.DefaultMEMS()), []StreamConfig{
		{Source: cbrSource(t, 1024*units.Kbps), Buffer: 128 * units.KB, WriteFraction: 0.4},
	})
	runCycles(m, 5)
	first := *m.DeviceStats()
	firstEnd := m.now

	m.Reset()
	if m.now != 0 {
		t.Fatalf("now = %v after Reset, want 0", m.now)
	}
	runCycles(m, 5)
	if got := *m.DeviceStats(); !reflect.DeepEqual(got, first) {
		t.Error("statistics after Reset diverge from the first run")
	}
	if m.now != firstEnd {
		t.Errorf("replay ended at %v, first run at %v", m.now, firstEnd)
	}
}

func TestMultiCoreResetReplaysIdentically(t *testing.T) {
	m := newTestMultiCore(t)
	runSuperCycles := func() {
		for i := 0; i < 4; i++ {
			m.drainToWake(device.StateStandby, units.Hour)
			for _, idx := range m.serviceOrder(PolicyMostUrgent) {
				m.positioning(idx)
				m.refillStream(idx)
			}
			m.shutdown()
		}
	}
	runSuperCycles()
	device1 := *m.DeviceStats()
	stream1 := [...]Stats{*m.StreamStats(0), *m.StreamStats(1)}
	end1 := m.now

	m.Reset()
	if m.now != 0 {
		t.Fatalf("now = %v after Reset, want 0", m.now)
	}
	runSuperCycles()
	if got := *m.DeviceStats(); !reflect.DeepEqual(got, device1) {
		t.Error("device statistics after Reset diverge from the first run")
	}
	for i := range stream1 {
		if got := *m.StreamStats(i); !reflect.DeepEqual(got, stream1[i]) {
			t.Errorf("stream %d statistics after Reset diverge from the first run", i)
		}
	}
	if m.now != end1 {
		t.Errorf("replay ended at %v, first run at %v", m.now, end1)
	}
}

func TestServiceOrderReusesScratch(t *testing.T) {
	m := newTestMultiCore(t)
	first := m.serviceOrder(PolicyRoundRobin)
	second := m.serviceOrder(PolicyMostUrgent)
	if &first[0] != &second[0] {
		t.Error("serviceOrder returned distinct backing arrays; the scratch is not reused")
	}
	for _, policy := range []Policy{PolicyRoundRobin, PolicyMostUrgent} {
		if allocs := testing.AllocsPerRun(50, func() { m.serviceOrder(policy) }); allocs != 0 {
			t.Errorf("serviceOrder(%v) allocates %.1f times per call, want 0", policy, allocs)
		}
	}
}

// TestServiceOrderMostUrgentIsStable pins the insertion sort's stability:
// streams with identical urgency keep declaration order, exactly as the
// sort.SliceStable implementation it replaced guaranteed.
func TestServiceOrderMostUrgentIsStable(t *testing.T) {
	rate := 512 * units.Kbps
	streams := make([]StreamConfig, 4)
	for i := range streams {
		streams[i] = StreamConfig{Source: cbrSource(t, rate), Buffer: 64 * units.KB}
	}
	m := NewMultiCore(NewMEMS(device.DefaultMEMS()), streams)
	// All four streams are full with identical demand, so every urgency ties.
	got := m.serviceOrder(PolicyMostUrgent)
	for i, idx := range got {
		if idx != i {
			t.Fatalf("order = %v, want declaration order for tied urgencies", got)
		}
	}
}
