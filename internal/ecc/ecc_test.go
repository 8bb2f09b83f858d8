package ecc

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestOverheadIsOneEighth(t *testing.T) {
	if overhead := float64(ParityBits) / float64(DataBits); overhead != 0.125 {
		t.Fatalf("overhead = %g, want 0.125 (the paper's one-eighth ECC assumption)", overhead)
	}
	if CodewordBits != 72 {
		t.Fatalf("CodewordBits = %d, want 72", CodewordBits)
	}
}

func TestEncodeDecodeClean(t *testing.T) {
	words := []uint64{0, 1, 0xffffffffffffffff, 0xdeadbeefcafebabe, 1 << 63, 0x5555555555555555}
	for _, w := range words {
		cw := Encode(w)
		got, corrected, err := Decode(cw)
		if err != nil {
			t.Errorf("Decode(Encode(%#x)): %v", w, err)
			continue
		}
		if corrected != 0 {
			t.Errorf("Decode(Encode(%#x)) corrected %d bits, want 0", w, corrected)
		}
		if got != w {
			t.Errorf("Decode(Encode(%#x)) = %#x", w, got)
		}
	}
}

func TestSingleDataBitErrorsAreCorrected(t *testing.T) {
	word := uint64(0xdeadbeefcafebabe)
	cw := Encode(word)
	for k := 0; k < DataBits; k++ {
		corrupted := cw.FlipDataBit(k)
		got, corrected, err := Decode(corrupted)
		if err != nil {
			t.Fatalf("data bit %d: %v", k, err)
		}
		if corrected != 1 {
			t.Errorf("data bit %d: corrected %d, want 1", k, corrected)
		}
		if got != word {
			t.Errorf("data bit %d: decoded %#x, want %#x", k, got, word)
		}
	}
}

func TestSingleParityBitErrorsAreCorrected(t *testing.T) {
	word := uint64(0x0123456789abcdef)
	cw := Encode(word)
	for k := 0; k < ParityBits; k++ {
		corrupted := cw.FlipParityBit(k)
		got, corrected, err := Decode(corrupted)
		if err != nil {
			t.Fatalf("parity bit %d: %v", k, err)
		}
		if corrected != 1 {
			t.Errorf("parity bit %d: corrected %d, want 1", k, corrected)
		}
		if got != word {
			t.Errorf("parity bit %d: decoded %#x, want %#x", k, got, word)
		}
	}
}

func TestDoubleBitErrorsAreDetected(t *testing.T) {
	word := uint64(0xfeedface12345678)
	cw := Encode(word)
	pairs := [][2]int{{0, 1}, {3, 40}, {10, 63}, {31, 32}, {62, 63}}
	for _, p := range pairs {
		corrupted := cw.FlipDataBit(p[0]).FlipDataBit(p[1])
		_, _, err := Decode(corrupted)
		if !errors.Is(err, ErrUncorrectable) {
			t.Errorf("double error at data bits %v: err = %v, want ErrUncorrectable", p, err)
		}
	}
	// Data bit plus overall-parity bit is also a double error.
	corrupted := cw.FlipDataBit(5).FlipParityBit(7)
	if _, _, err := Decode(corrupted); !errors.Is(err, ErrUncorrectable) {
		t.Errorf("data+overall double error: err = %v, want ErrUncorrectable", err)
	}
}

func TestFlipOutOfRangeIsNoop(t *testing.T) {
	cw := Encode(42)
	if cw.FlipDataBit(-1) != cw || cw.FlipDataBit(64) != cw {
		t.Error("FlipDataBit out of range modified the codeword")
	}
	if cw.FlipParityBit(-1) != cw || cw.FlipParityBit(8) != cw {
		t.Error("FlipParityBit out of range modified the codeword")
	}
}

func TestEncodeDecodeBlock(t *testing.T) {
	payload := []byte("streaming MEMS storage needs only a tiny buffer")
	words := EncodeBlock(payload)
	wantWords := (len(payload) + 7) / 8
	if len(words) != wantWords {
		t.Fatalf("EncodeBlock produced %d codewords, want %d", len(words), wantWords)
	}
	decoded, corrected, err := DecodeBlock(words)
	if err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
	if corrected != 0 {
		t.Errorf("DecodeBlock corrected %d bits on clean data", corrected)
	}
	if !bytes.Equal(decoded[:len(payload)], payload) {
		t.Errorf("round trip mismatch: %q", decoded[:len(payload)])
	}
}

func TestDecodeBlockCorrectsScatteredErrors(t *testing.T) {
	payload := []byte("one single-bit error per codeword is always recoverable....")
	words := EncodeBlock(payload)
	for i := range words {
		words[i] = words[i].FlipDataBit((i * 7) % DataBits)
	}
	decoded, corrected, err := DecodeBlock(words)
	if err != nil {
		t.Fatalf("DecodeBlock: %v", err)
	}
	if corrected != len(words) {
		t.Errorf("corrected %d bits, want %d", corrected, len(words))
	}
	if !bytes.Equal(decoded[:len(payload)], payload) {
		t.Errorf("round trip mismatch after correction")
	}
}

func TestDecodeBlockReportsUncorrectable(t *testing.T) {
	words := EncodeBlock([]byte("goodbye"))
	words[0] = words[0].FlipDataBit(0).FlipDataBit(1)
	if _, _, err := DecodeBlock(words); !errors.Is(err, ErrUncorrectable) {
		t.Errorf("err = %v, want ErrUncorrectable", err)
	}
}

func TestEncodeBlockEmpty(t *testing.T) {
	if got := EncodeBlock(nil); len(got) != 0 {
		t.Errorf("EncodeBlock(nil) produced %d codewords", len(got))
	}
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	f := func(word uint64) bool {
		got, corrected, err := Decode(Encode(word))
		return err == nil && corrected == 0 && got == word
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: any single data-bit error is corrected for arbitrary data words.
func TestQuickSingleErrorCorrection(t *testing.T) {
	f := func(word uint64, bit uint8) bool {
		k := int(bit) % DataBits
		got, corrected, err := Decode(Encode(word).FlipDataBit(k))
		return err == nil && corrected == 1 && got == word
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: any double data-bit error is detected (never silently miscorrected).
func TestQuickDoubleErrorDetection(t *testing.T) {
	f := func(word uint64, a, b uint8) bool {
		i, j := int(a)%DataBits, int(b)%DataBits
		if i == j {
			return true
		}
		_, _, err := Decode(Encode(word).FlipDataBit(i).FlipDataBit(j))
		return errors.Is(err, ErrUncorrectable)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: block round trip preserves payload bytes for arbitrary content.
func TestQuickBlockRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		decoded, corrected, err := DecodeBlock(EncodeBlock(payload))
		if err != nil || corrected != 0 {
			return false
		}
		if len(payload) == 0 {
			return len(decoded) == 0
		}
		return bytes.Equal(decoded[:len(payload)], payload)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDataPositionsAreConsistent(t *testing.T) {
	// The largest data position must fit in the 7-bit syndrome and no data
	// position may be a power of two.
	maxPos := 0
	for k, pos := range buildDataPositions() {
		if pos&(pos-1) == 0 {
			t.Errorf("data bit %d sits at power-of-two position %d", k, pos)
		}
		if pos > maxPos {
			maxPos = pos
		}
		if positionToDataBit[pos] != k {
			t.Errorf("position index inconsistent for data bit %d", k)
		}
	}
	if maxPos >= 128 {
		t.Errorf("max data position %d does not fit the 7-bit syndrome", maxPos)
	}
	if maxPos != 71 {
		t.Errorf("max data position = %d, want 71 for a (72,64) layout", maxPos)
	}
}
