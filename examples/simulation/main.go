// Simulation: validate the analytical model with the discrete-event simulator
// and stress it with traffic the closed forms cannot express.
//
// The example first replays the paper's Fig. 2 operating point (1024 kbps
// through a 20 KiB buffer) in the simulator and compares the measured per-bit
// energy and refill frequency against Eq. 1. It then switches to a
// variable-bit-rate stream with background OS/file-system requests and a raw
// media bit-error rate, and reports what the analytical model cannot see:
// buffer underrun margins, best-effort interference, and ECC activity.
//
// Run with:
//
//	go run ./examples/simulation
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"memstream"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	dev := memstream.DefaultDevice()
	rate := 1024 * memstream.Kbps
	buffer := 20 * memstream.KiB

	// Part 1: clean CBR run against the analytical model.
	fmt.Fprintln(w, "=== part 1: validating Eq. 1 against the simulator (CBR, no background traffic) ===")
	cfg := memstream.SimConfig{
		Device:   dev,
		DRAM:     memstream.DefaultDRAM(),
		Buffer:   buffer,
		Spec:     memstream.CBRSpec(rate),
		Duration: 10 * 60 * memstream.Second,
		Seed:     1,
	}
	stats, err := memstream.Simulate(cfg)
	if err != nil {
		return err
	}

	wl := memstream.DefaultWorkload()
	wl.BestEffortFraction = 0
	model, err := memstream.NewWithOptions(dev, rate, memstream.Options{Workload: &wl})
	if err != nil {
		return err
	}
	pt, err := model.At(buffer)
	if err != nil {
		return err
	}
	simNJ := stats.PerBitEnergy().NanojoulesPerBit()
	modelNJ := pt.EnergyPerBit.NanojoulesPerBit()
	fmt.Fprintf(w, "per-bit energy:  simulator %.2f nJ/b, Eq. 1 %.2f nJ/b (%+.1f%%)\n",
		simNJ, modelNJ, 100*(simNJ-modelNJ)/modelNJ)
	cal := memstream.DefaultCalendar()
	fmt.Fprintf(w, "springs:         simulator projects %.2f years, Eq. 5 gives %.2f years\n",
		stats.ProjectedSpringsLifetime(dev, cal).Years(), pt.SpringsLifetime.Years())
	fmt.Fprintf(w, "probes:          simulator projects %.1f years, Eq. 6 gives %.1f years\n",
		stats.ProjectedProbesLifetime(dev, cal).Years(), pt.ProbesLifetime.Years())
	fmt.Fprintf(w, "refill cycles:   %d over %v (%.2f per second)\n\n",
		stats.RefillCycles, stats.SimulatedTime, stats.RefillsPerSecond())

	// Part 2: VBR + best-effort + media errors — beyond the closed forms.
	fmt.Fprintln(w, "=== part 2: VBR stream, 5% best-effort traffic, 1e-4 raw bit-error rate ===")
	stress := memstream.SimConfig{
		Device:       dev,
		DRAM:         memstream.DefaultDRAM(),
		Buffer:       buffer,
		Spec:         memstream.VBRSpec(rate, 7),
		BestEffort:   memstream.NewBestEffortProcess(0.05, dev.MediaRate(), 7),
		Duration:     10 * 60 * memstream.Second,
		BitErrorRate: 1e-4,
		Seed:         7,
	}
	stressStats, err := memstream.Simulate(stress)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "per-bit energy:  %.2f nJ/b (+%.1f%% over the clean CBR run)\n",
		stressStats.PerBitEnergy().NanojoulesPerBit(),
		100*(stressStats.PerBitEnergy().NanojoulesPerBit()-simNJ)/simNJ)
	fmt.Fprintf(w, "buffer health:   minimum level %v, %d underruns\n",
		stressStats.MinBufferLevel, stressStats.Underruns)
	fmt.Fprintf(w, "best-effort:     %d requests (%v) served inside the refill cycles\n",
		stressStats.BestEffortRequests, stressStats.BestEffortBits)
	fmt.Fprintf(w, "ECC:             %d single-bit errors corrected, %d uncorrectable codewords\n",
		stressStats.ECCCorrected, stressStats.ECCUncorrectable)
	fmt.Fprintf(w, "duty cycle:      %.1f%% active (was %.1f%% in the clean run)\n",
		100*stressStats.DutyCycle(), 100*stats.DutyCycle())

	// Part 3: how much margin does the dimensioned buffer really have? Try a
	// buffer sized only for energy and watch the springs projection collapse.
	fmt.Fprintln(w, "\n=== part 3: what happens with an energy-only buffer ===")
	be, err := model.BreakEvenBuffer()
	if err != nil {
		return err
	}
	tiny := cfg
	tiny.Buffer = be.Scale(3) // comfortably above break-even, fine for energy
	tinyStats, err := memstream.Simulate(tiny)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a %v buffer (3x break-even) still saves energy (%.2f nJ/b) but the springs\n",
		tiny.Buffer, tinyStats.PerBitEnergy().NanojoulesPerBit())
	fmt.Fprintf(w, "would last only %.1f years at 8 h/day — the lifetime, not energy, dictates the buffer.\n",
		tinyStats.ProjectedSpringsLifetime(dev, cal).Years())
	return nil
}
