// Package ecc is the simulator's bit-error model: a Hamming SECDED (72,64)
// code, which adds exactly one ECC bit for every eight user bits — the
// overhead ratio the paper assumes for the IBM device ("ECC data is
// one-eighth the user data"). On every refill the simulator encodes a sample
// of random words, flips bits at the configured raw bit-error rate and
// decodes them, counting corrected and uncorrectable errors; the analytical
// capacity model in internal/format only needs the overhead ratio.
package ecc

import (
	"errors"
	"fmt"
	"math/bits"
)

// DataBits is the number of user bits per codeword.
const DataBits = 64

// ParityBits is the number of check bits per codeword: seven Hamming parity
// bits plus one overall (SECDED) parity bit.
const ParityBits = 8

// CodewordBits is the total number of bits per codeword.
const CodewordBits = DataBits + ParityBits

// ErrUncorrectable is returned when a codeword contains more errors than the
// code can correct (a detected double-bit error, or an inconsistent syndrome).
var ErrUncorrectable = errors.New("ecc: uncorrectable error")

// errDoubleBit is Decode's detected double-bit error. It is one value, so
// a decode that detects one allocates nothing.
var errDoubleBit = fmt.Errorf("%w: double-bit error detected", ErrUncorrectable)

// Codeword is an encoded 64-bit word: the original data plus eight check bits.
type Codeword struct {
	// Data is the 64 user bits.
	Data uint64
	// Parity holds the seven Hamming parity bits in bits 0-6 and the overall
	// parity bit in bit 7.
	Parity uint8
}

// hammingMasks[i] selects the data bits covered by Hamming parity bit i.
// The masks are derived from the positions the data bits occupy in a
// conventional (127,120) Hamming layout truncated to 64 data bits: data bit k
// is placed at the (k+1)-th non-power-of-two position, and parity bit i covers
// the positions whose binary expansion has bit i set.
var hammingMasks = buildHammingMasks()

// positionToDataBit maps a 1-based Hamming position back to the data bit index,
// or -1 if the position holds a parity bit.
var positionToDataBit = buildPositionIndex()

func buildDataPositions() [DataBits]int {
	var positions [DataBits]int
	k := 0
	for pos := 1; k < DataBits; pos++ {
		if pos&(pos-1) == 0 { // powers of two hold parity bits
			continue
		}
		positions[k] = pos
		k++
	}
	return positions
}

func buildHammingMasks() [7]uint64 {
	var masks [7]uint64
	positions := buildDataPositions()
	for k, pos := range positions {
		for i := 0; i < 7; i++ {
			if pos&(1<<i) != 0 {
				masks[i] |= 1 << uint(k)
			}
		}
	}
	return masks
}

func buildPositionIndex() map[int]int {
	idx := make(map[int]int, DataBits)
	for k, pos := range buildDataPositions() {
		idx[pos] = k
	}
	return idx
}

// Encode computes the codeword for a 64-bit data word.
func Encode(data uint64) Codeword {
	var parity uint8
	for i := 0; i < 7; i++ {
		if bits.OnesCount64(data&hammingMasks[i])%2 == 1 {
			parity |= 1 << uint(i)
		}
	}
	// The overall parity bit covers the data and the seven Hamming bits,
	// making the code SECDED: single errors are corrected, double errors
	// are detected.
	overall := (bits.OnesCount64(data) + bits.OnesCount8(parity&0x7f)) % 2
	if overall == 1 {
		parity |= 1 << 7
	}
	return Codeword{Data: data, Parity: parity}
}

// Decode checks and, if necessary, corrects a codeword. It returns the
// corrected data word and the number of bit errors repaired (0 or 1).
// A detected but uncorrectable error returns ErrUncorrectable.
func Decode(cw Codeword) (data uint64, corrected int, err error) {
	// Syndrome: stored Hamming parity versus parity recomputed from the
	// (possibly corrupted) data bits. A single error at Hamming position p
	// yields syndrome == p.
	recomputed := Encode(cw.Data)
	syndrome := int((cw.Parity ^ recomputed.Parity) & 0x7f)

	// Overall parity of the received 72-bit word. Encode arranges for the
	// total parity to be even, so an odd total indicates an odd number of
	// errors (assumed one), and an even total with a non-zero syndrome
	// indicates a double-bit error.
	totalParity := (bits.OnesCount64(cw.Data) + bits.OnesCount8(cw.Parity)) % 2

	switch {
	case totalParity == 0 && syndrome == 0:
		return cw.Data, 0, nil
	case totalParity == 1 && syndrome == 0:
		// The overall parity bit itself flipped; the data is intact.
		return cw.Data, 1, nil
	case totalParity == 1:
		// Single-bit error at Hamming position `syndrome`.
		if k, ok := positionToDataBit[syndrome]; ok {
			return cw.Data ^ (1 << uint(k)), 1, nil
		}
		// The flipped bit is one of the stored Hamming parity bits (a
		// power-of-two position); the data is intact.
		if syndrome&(syndrome-1) == 0 {
			return cw.Data, 1, nil
		}
		return 0, 0, fmt.Errorf("%w: syndrome %d out of range", ErrUncorrectable, syndrome)
	default:
		// Even total parity with a non-zero syndrome: double-bit error.
		return 0, 0, errDoubleBit
	}
}

// FlipDataBit returns a copy of the codeword with data bit k (0-63) inverted.
// It is intended for fault-injection tests and the simulator's error model.
func (cw Codeword) FlipDataBit(k int) Codeword {
	if k < 0 || k >= DataBits {
		return cw
	}
	cw.Data ^= 1 << uint(k)
	return cw
}

// FlipParityBit returns a copy of the codeword with parity bit k (0-7) inverted.
func (cw Codeword) FlipParityBit(k int) Codeword {
	if k < 0 || k >= ParityBits {
		return cw
	}
	cw.Parity ^= 1 << uint(k)
	return cw
}

// EncodeBlock encodes a byte slice into a sequence of codewords. The input is
// padded with zero bytes to a multiple of eight bytes; the original length is
// not recorded (callers track it, as a storage device would in its metadata).
func EncodeBlock(data []byte) []Codeword {
	n := (len(data) + 7) / 8
	out := make([]Codeword, 0, n)
	for i := 0; i < n; i++ {
		var word uint64
		for j := 0; j < 8; j++ {
			idx := i*8 + j
			if idx < len(data) {
				word |= uint64(data[idx]) << uint(8*j)
			}
		}
		out = append(out, Encode(word))
	}
	return out
}

// DecodeBlock decodes a sequence of codewords back into bytes, correcting
// single-bit errors per codeword. It returns the decoded bytes (always a
// multiple of eight; callers truncate to the original length), the total
// number of corrected bit errors, and the first uncorrectable error found.
func DecodeBlock(words []Codeword) (data []byte, corrected int, err error) {
	data = make([]byte, 0, len(words)*8)
	for i, cw := range words {
		word, fixed, derr := Decode(cw)
		if derr != nil {
			return nil, corrected, fmt.Errorf("codeword %d: %w", i, derr)
		}
		corrected += fixed
		for j := 0; j < 8; j++ {
			data = append(data, byte(word>>uint(8*j)))
		}
	}
	return data, corrected, nil
}
