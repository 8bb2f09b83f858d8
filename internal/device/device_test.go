package device

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"memstream/internal/units"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return diff < tol
	}
	return diff/scale < tol
}

func TestDefaultMEMSValidates(t *testing.T) {
	m := DefaultMEMS()
	if err := m.Validate(); err != nil {
		t.Fatalf("DefaultMEMS does not validate: %v", err)
	}
}

func TestMEMSMediaRate(t *testing.T) {
	m := DefaultMEMS()
	// 1024 probes at 100 kbps each = 102.4 Mbps aggregate.
	if got := m.MediaRate().Megabits(); !almostEqual(got, 102.4, 1e-12) {
		t.Errorf("MediaRate = %g Mbps, want 102.4", got)
	}
}

func TestMEMSOverhead(t *testing.T) {
	m := DefaultMEMS()
	if got := m.OverheadTime().Milliseconds(); !almostEqual(got, 3, 1e-12) {
		t.Errorf("OverheadTime = %g ms, want 3", got)
	}
	// Eoh = 672 mW * 2 ms + 672 mW * 1 ms = 2.016 mJ.
	if got := m.OverheadEnergy().Millijoules(); !almostEqual(got, 2.016, 1e-12) {
		t.Errorf("OverheadEnergy = %g mJ, want 2.016", got)
	}
	// Poh = Eoh / toh = 672 mW because seek and shutdown power are equal.
	if got := m.OverheadPower().Milliwatts(); !almostEqual(got, 672, 1e-12) {
		t.Errorf("OverheadPower = %g mW, want 672", got)
	}
}

func TestMEMSTotalProbes(t *testing.T) {
	m := DefaultMEMS()
	if got := m.TotalProbes(); got != 4096 {
		t.Errorf("TotalProbes = %d, want 4096", got)
	}
}

func TestMEMSStatePower(t *testing.T) {
	m := DefaultMEMS()
	cases := []struct {
		state PowerState
		want  units.Power
	}{
		{StateSeek, 672 * units.Milliwatt},
		{StateReadWrite, 316 * units.Milliwatt},
		{StateBestEffort, 316 * units.Milliwatt},
		{StateShutdown, 672 * units.Milliwatt},
		{StateStandby, 5 * units.Milliwatt},
		{StateIdle, 120 * units.Milliwatt},
	}
	for _, c := range cases {
		if got := m.StatePower(c.state); !almostEqual(got.Watts(), c.want.Watts(), 1e-12) {
			t.Errorf("StatePower(%v) = %v, want %v", c.state, got, c.want)
		}
	}
	if got := m.StatePower(PowerState(99)); got != 0 {
		t.Errorf("StatePower(invalid) = %v, want 0", got)
	}
}

func TestPowerStateString(t *testing.T) {
	names := map[PowerState]string{
		StateSeek:       "seek",
		StateReadWrite:  "read/write",
		StateShutdown:   "shutdown",
		StateStandby:    "standby",
		StateIdle:       "idle",
		StateBestEffort: "best-effort",
	}
	for state, want := range names {
		if got := state.String(); got != want {
			t.Errorf("PowerState(%d).String() = %q, want %q", state, got, want)
		}
	}
	if got := PowerState(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown state formats as %q", got)
	}
}

func TestMEMSWithDurability(t *testing.T) {
	base := DefaultMEMS()
	improved := base.WithDurability(200, 1e12)
	if improved.ProbeWriteCycles != 200 || improved.SpringDutyCycles != 1e12 {
		t.Errorf("WithDurability not applied: %+v", improved)
	}
	if base.ProbeWriteCycles != 100 || base.SpringDutyCycles != 1e8 {
		t.Errorf("WithDurability mutated the receiver: %+v", base)
	}
}

func TestMEMSValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*MEMS)
	}{
		{"no active probes", func(m *MEMS) { m.ActiveProbes = 0 }},
		{"zero array", func(m *MEMS) { m.ProbeArrayRows = 0 }},
		{"too many active probes", func(m *MEMS) { m.ActiveProbes = 1 << 20 }},
		{"zero capacity", func(m *MEMS) { m.Capacity = 0 }},
		{"zero probe rate", func(m *MEMS) { m.PerProbeRate = 0 }},
		{"zero seek time", func(m *MEMS) { m.SeekTime = 0 }},
		{"zero rw power", func(m *MEMS) { m.ReadWritePower = 0 }},
		{"negative standby", func(m *MEMS) { m.StandbyPower = -1 }},
		{"idle below standby", func(m *MEMS) { m.IdlePower = m.StandbyPower / 2 }},
		{"zero probe cycles", func(m *MEMS) { m.ProbeWriteCycles = 0 }},
		{"zero spring cycles", func(m *MEMS) { m.SpringDutyCycles = 0 }},
		{"negative sync bits", func(m *MEMS) { m.SyncBitsPerSubsector = -1 }},
		{"ECC fraction too large", func(m *MEMS) { m.ECCFraction = 1.5 }},
		{"NaN rw power", func(m *MEMS) { m.ReadWritePower = units.Power(math.NaN()) }},
		{"NaN seek power", func(m *MEMS) { m.SeekPower = units.Power(math.NaN()) }},
		{"NaN shutdown power", func(m *MEMS) { m.ShutdownPower = units.Power(math.NaN()) }},
		{"NaN standby power", func(m *MEMS) { m.StandbyPower = units.Power(math.NaN()) }},
		{"NaN idle power", func(m *MEMS) { m.IdlePower = units.Power(math.NaN()) }},
		{"NaN probe cycles", func(m *MEMS) { m.ProbeWriteCycles = math.NaN() }},
		{"NaN spring cycles", func(m *MEMS) { m.SpringDutyCycles = math.NaN() }},
		{"NaN ECC fraction", func(m *MEMS) { m.ECCFraction = math.NaN() }},
	}
	for _, mut := range mutations {
		t.Run(mut.name, func(t *testing.T) {
			m := DefaultMEMS()
			mut.mutate(&m)
			if err := m.Validate(); err == nil {
				t.Errorf("Validate accepted broken config (%s)", mut.name)
			}
		})
	}
}

func TestDefaultDiskValidates(t *testing.T) {
	d := Default18InchDisk()
	if err := d.Validate(); err != nil {
		t.Fatalf("Default18InchDisk does not validate: %v", err)
	}
}

func TestDiskOverhead(t *testing.T) {
	d := Default18InchDisk()
	if got := d.OverheadTime().Seconds(); !almostEqual(got, 3.0, 1e-12) {
		t.Errorf("OverheadTime = %g s, want 3.0", got)
	}
	// 2.3 W * 2.5 s + 0.3 W * 0.5 s = 5.9 J.
	if got := d.OverheadEnergy().Joules(); !almostEqual(got, 5.9, 1e-12) {
		t.Errorf("OverheadEnergy = %g J, want 5.9", got)
	}
	if got := d.OverheadPower().Watts(); !almostEqual(got, 5.9/3.0, 1e-12) {
		t.Errorf("OverheadPower = %g W, want %g", got, 5.9/3.0)
	}
}

func TestDiskBreakEvenTimeIsSeconds(t *testing.T) {
	// The disk's shutdown break-even time (Eoh - Psb*toh)/(Pid - Psb) must be
	// on the order of 18-20 s so that the paper's 0.08-9.29 MB break-even
	// buffer range is reproduced (three orders of magnitude above MEMS).
	d := Default18InchDisk()
	num := d.OverheadEnergy().Sub(d.StandbyPower.Times(d.OverheadTime()))
	tbe := num.Joules() / d.IdlePower.Sub(d.StandbyPower).Watts()
	if tbe < 15 || tbe > 22 {
		t.Errorf("disk break-even time = %g s, want 15-22 s", tbe)
	}
}

func TestDiskValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Disk)
	}{
		{"zero capacity", func(d *Disk) { d.Capacity = 0 }},
		{"zero media rate", func(d *Disk) { d.MediaRate = 0 }},
		{"zero spin-up", func(d *Disk) { d.SpinUpTime = 0 }},
		{"idle below standby", func(d *Disk) { d.IdlePower = d.StandbyPower }},
		{"zero load cycles", func(d *Disk) { d.LoadUnloadCycles = 0 }},
		{"NaN idle power", func(d *Disk) { d.IdlePower = units.Power(math.NaN()) }},
		{"NaN standby power", func(d *Disk) { d.StandbyPower = units.Power(math.NaN()) }},
		{"NaN load cycles", func(d *Disk) { d.LoadUnloadCycles = math.NaN() }},
		{"negative read/write power", func(d *Disk) { d.ReadWritePower = -5 * units.Watt }},
		{"NaN spin-up power", func(d *Disk) { d.SpinUpPower = units.Power(math.NaN()) }},
		{"zero spin-down power", func(d *Disk) { d.SpinDownPower = 0 }},
		{"zero seek power", func(d *Disk) { d.SeekPower = 0 }},
		{"negative standby power", func(d *Disk) { d.StandbyPower = -100 * units.Milliwatt }},
		{"NaN seek time", func(d *Disk) { d.SeekTime = units.Duration(math.NaN()) }},
	}
	for _, mut := range mutations {
		t.Run(mut.name, func(t *testing.T) {
			d := Default18InchDisk()
			mut.mutate(&d)
			if err := d.Validate(); err == nil {
				t.Errorf("Validate accepted broken config (%s)", mut.name)
			}
		})
	}
}

func TestDefaultDRAMValidates(t *testing.T) {
	d := DefaultDRAM()
	if err := d.Validate(); err != nil {
		t.Fatalf("DefaultDRAM does not validate: %v", err)
	}
}

func TestDRAMBackgroundPowerScalesWithBuffer(t *testing.T) {
	d := DefaultDRAM()
	small := d.BackgroundPower(1 * units.KiB)
	large := d.BackgroundPower(10 * units.MiB)
	if small.Watts() > large.Watts() {
		t.Errorf("background power decreased with buffer size: %v > %v", small, large)
	}
	// A kilobyte-scale buffer keeps only a sliver of the die alive, so the
	// floor power dominates.
	if !almostEqual(small.Watts(), d.FloorPower.Watts(), 1e-9) {
		t.Errorf("small-buffer background power = %v, want floor %v", small, d.FloorPower)
	}
	// A zero buffer still pays the interface floor.
	if got := d.BackgroundPower(0); !almostEqual(got.Watts(), d.FloorPower.Watts(), 1e-12) {
		t.Errorf("zero-buffer background power = %v, want floor %v", got, d.FloorPower)
	}
}

func TestDRAMMultiDieBackground(t *testing.T) {
	d := DefaultDRAM()
	// A buffer larger than one die needs more than one die's background power.
	buf := d.DieCapacity.Scale(2.5)
	got := d.BackgroundPower(buf)
	if got.Watts() < 3*d.DieBackgroundPower.Watts() {
		t.Errorf("2.5-die buffer background = %v, want at least 3 dies (%v)",
			got, d.DieBackgroundPower.Scale(3))
	}
}

func TestDRAMAccessEnergy(t *testing.T) {
	d := DefaultDRAM()
	e := d.AccessEnergy(1 * units.KiB)
	want := 50e-12 * 8192
	if !almostEqual(e.Joules(), want, 1e-12) {
		t.Errorf("AccessEnergy(1 KiB) = %g J, want %g", e.Joules(), want)
	}
}

func TestDRAMCycleEnergySmallVersusDevice(t *testing.T) {
	// The paper reports DRAM energy is negligible next to the MEMS energy.
	// For a 20 KiB buffer and a 1024 kbps stream the cycle is ~0.16 s; the
	// DRAM cycle energy must be well below the MEMS standby energy alone.
	d := DefaultDRAM()
	m := DefaultMEMS()
	buffer := 20 * units.KiB
	cycle := 160 * units.Millisecond
	dramEnergy := d.CycleEnergy(buffer, cycle, 0)
	memsFloor := m.StandbyPower.Times(cycle)
	if dramEnergy.Joules() > 0.2*memsFloor.Joules() {
		t.Errorf("DRAM cycle energy %v is not negligible next to MEMS standby %v",
			dramEnergy, memsFloor)
	}
}

func TestDRAMValidateRejectsBadConfigs(t *testing.T) {
	d := DefaultDRAM()
	d.DieCapacity = 0
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted zero die capacity")
	}
	d = DefaultDRAM()
	d.AccessEnergyPerBit = -1
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted negative access energy")
	}
	d = DefaultDRAM()
	d.DieBackgroundPower = -1
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted negative background power")
	}
	for name, mutate := range map[string]func(*DRAM){
		"background power": func(d *DRAM) { d.DieBackgroundPower = units.Power(math.NaN()) },
		"floor power":      func(d *DRAM) { d.FloorPower = units.Power(math.NaN()) },
		"access energy":    func(d *DRAM) { d.AccessEnergyPerBit = units.EnergyPerBit(math.NaN()) },
	} {
		d = DefaultDRAM()
		mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("Validate accepted a NaN %s", name)
		}
	}
}

func TestStringsAreInformative(t *testing.T) {
	if s := DefaultMEMS().String(); !strings.Contains(s, "1024 probes") {
		t.Errorf("MEMS String() lacks probe count: %q", s)
	}
	if s := Default18InchDisk().String(); !strings.Contains(s, "1.8") {
		t.Errorf("Disk String() lacks form factor: %q", s)
	}
	if s := DefaultDRAM().String(); !strings.Contains(s, "Micron") {
		t.Errorf("DRAM String() lacks model name: %q", s)
	}
}

// Property: DRAM background power is monotonically non-decreasing in buffer size.
func TestQuickDRAMBackgroundMonotone(t *testing.T) {
	d := DefaultDRAM()
	f := func(a, b float64) bool {
		x := units.Size(math.Mod(math.Abs(a), 1e9)) * units.Byte
		y := units.Size(math.Mod(math.Abs(b), 1e9)) * units.Byte
		if x > y {
			x, y = y, x
		}
		return d.BackgroundPower(x).Watts() <= d.BackgroundPower(y).Watts()+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MEMS overhead energy equals overhead power times overhead time.
func TestQuickOverheadConsistency(t *testing.T) {
	f := func(seekMs, shutdownMs, seekMW, shutdownMW float64) bool {
		m := DefaultMEMS()
		m.SeekTime = units.Duration(1+math.Mod(math.Abs(seekMs), 100)) * units.Millisecond
		m.ShutdownTime = units.Duration(1+math.Mod(math.Abs(shutdownMs), 100)) * units.Millisecond
		m.SeekPower = units.Power(1+math.Mod(math.Abs(seekMW), 1000)) * units.Milliwatt
		m.ShutdownPower = units.Power(1+math.Mod(math.Abs(shutdownMW), 1000)) * units.Milliwatt
		lhs := m.OverheadEnergy().Joules()
		rhs := m.OverheadPower().Times(m.OverheadTime()).Joules()
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
