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
		m.DrainToWake(device.StateStandby, units.Hour)
		m.Positioning(0)
		m.RefillStream(0)
		m.Shutdown()
	}
}

func TestCoreResetReplaysIdentically(t *testing.T) {
	m := NewMultiCore(NewMEMS(device.DefaultMEMS()), []StreamConfig{
		{Source: cbrSource(t, 1024*units.Kbps), Buffer: 128 * units.KB, WriteFraction: 0.4},
	})
	runCycles(m, 5)
	first := *m.DeviceStats()
	firstEnd := m.Now()

	m.Reset()
	if m.Now() != 0 {
		t.Fatalf("Now = %v after Reset, want 0", m.Now())
	}
	runCycles(m, 5)
	if got := *m.DeviceStats(); !reflect.DeepEqual(got, first) {
		t.Error("statistics after Reset diverge from the first run")
	}
	if m.Now() != firstEnd {
		t.Errorf("replay ended at %v, first run at %v", m.Now(), firstEnd)
	}
}

func TestMultiCoreResetReplaysIdentically(t *testing.T) {
	m := newTestMultiCore(t)
	runSuperCycles := func() {
		for i := 0; i < 4; i++ {
			m.DrainToWake(device.StateStandby, units.Hour)
			for _, idx := range m.ServiceOrder(PolicyMostUrgent) {
				m.Positioning(idx)
				m.RefillStream(idx)
			}
			m.Shutdown()
		}
	}
	runSuperCycles()
	device1 := *m.DeviceStats()
	stream1 := [...]Stats{*m.StreamStats(0), *m.StreamStats(1)}
	end1 := m.Now()

	m.Reset()
	if m.Now() != 0 {
		t.Fatalf("Now = %v after Reset, want 0", m.Now())
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
	if m.Now() != end1 {
		t.Errorf("replay ended at %v, first run at %v", m.Now(), end1)
	}
}

func TestServiceOrderReusesScratch(t *testing.T) {
	m := newTestMultiCore(t)
	first := m.ServiceOrder(PolicyRoundRobin)
	second := m.ServiceOrder(PolicyMostUrgent)
	if &first[0] != &second[0] {
		t.Error("ServiceOrder returned distinct backing arrays; the scratch is not reused")
	}
	for _, policy := range []Policy{PolicyRoundRobin, PolicyMostUrgent} {
		if allocs := testing.AllocsPerRun(50, func() { m.ServiceOrder(policy) }); allocs != 0 {
			t.Errorf("ServiceOrder(%v) allocates %.1f times per call, want 0", policy, allocs)
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
	got := m.ServiceOrder(PolicyMostUrgent)
	for i, idx := range got {
		if idx != i {
			t.Fatalf("order = %v, want declaration order for tied urgencies", got)
		}
	}
}
