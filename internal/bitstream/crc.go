package bitstream

import "math/bits"

// The configuration logic maintains a 16-bit running CRC over every register
// write (register address and data word), as the real Virtex does. A write
// to the CRC register compares the accumulated value against the written
// value; mismatch aborts configuration. The CmdRCRC command resets it.
//
// Polynomial: CRC-16/IBM (x^16 + x^15 + x^2 + 1, poly 0x8005), bit-serial,
// fed with the 4 low bits of the register address followed by the 32 data
// bits, LSB first.
//
// The register shifts MSB-first, so feeding bits LSB-first equals feeding
// the bit-reversed value MSB-first, which a table folds a byte (or, for the
// address, a nibble) at a time. internal/bitlint keeps the bit-serial form
// as the independent check of this one.

const crcPoly = 0x8005

// crcTable8[x] and crcTable4[x] are the register after shifting zeros in
// from x placed at its top 8 and 4 bits respectively.
var crcTable8, crcTable4 = func() (t8 [256]uint16, t4 [16]uint16) {
	crcFill(t8[:], 8)
	crcFill(t4[:], 4)
	return
}()

func crcFill(t []uint16, width int) {
	for x := range t {
		crc := uint16(x) << (16 - width)
		for i := 0; i < width; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ crcPoly
			} else {
				crc <<= 1
			}
		}
		t[x] = crc
	}
}

// crcUpdate folds one register write into the running CRC.
func crcUpdate(crc uint16, reg int, word uint32) uint16 {
	r := uint16(bits.Reverse8(uint8(reg)) >> 4)
	crc = crc<<4 ^ crcTable4[(crc>>12^r)&15]
	v := bits.Reverse32(word)
	crc = crc<<8 ^ crcTable8[uint8(crc>>8)^uint8(v>>24)]
	crc = crc<<8 ^ crcTable8[uint8(crc>>8)^uint8(v>>16)]
	crc = crc<<8 ^ crcTable8[uint8(crc>>8)^uint8(v>>8)]
	return crc<<8 ^ crcTable8[uint8(crc>>8)^uint8(v)]
}
