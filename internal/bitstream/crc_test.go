package bitstream

import (
	"math/rand"
	"testing"
)

// refCRCUpdate is the bit-serial CRC the table-driven crcUpdate replaced:
// one register shift per input bit, the 4 address bits and then the 32 data
// bits, LSB first.
func refCRCUpdate(crc uint16, reg int, word uint32) uint16 {
	feed := func(v uint32, nbits int) {
		for i := 0; i < nbits; i++ {
			top := crc >> 15
			crc <<= 1
			if top^uint16(v>>uint(i))&1 == 1 {
				crc ^= crcPoly
			}
		}
	}
	feed(uint32(reg), 4)
	feed(word, 32)
	return crc
}

// TestCRCUpdateMatchesBitSerial compares the table-driven CRC with the
// bit-serial reference for every register address nibble over 1e5 random
// (running CRC, data word) pairs, plus the all-zero and all-one words.
func TestCRCUpdateMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	check := func(crc uint16, reg int, w uint32) {
		if got, want := crcUpdate(crc, reg, w), refCRCUpdate(crc, reg, w); got != want {
			t.Fatalf("crcUpdate(%#04x, %d, %#08x) = %#04x, bit-serial %#04x", crc, reg, w, got, want)
		}
	}
	for reg := 0; reg < 16; reg++ {
		for _, w := range []uint32{0, ^uint32(0)} {
			check(0, reg, w)
			check(0xFFFF, reg, w)
		}
	}
	for i := 0; i < 100000; i++ {
		check(uint16(rng.Uint32()), i%16, rng.Uint32())
	}
}

func BenchmarkCRCUpdate(b *testing.B) {
	words := make([]uint32, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range words {
		words[i] = rng.Uint32()
	}
	b.SetBytes(int64(4 * len(words)))
	b.ResetTimer()
	var crc uint16
	for i := 0; i < b.N; i++ {
		for _, w := range words {
			crc = crcUpdate(crc, RegFDRI, w)
		}
	}
	sink = crc
}

var sink uint16
