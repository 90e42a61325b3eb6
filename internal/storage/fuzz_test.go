package storage

import (
	"bytes"
	"testing"
)

// FuzzImageSlotDecode checks that decodeSlot never panics and never
// accepts a slot it cannot faithfully re-encode: corrupt, torn or
// padded input must error, and accepted input must re-encode byte for
// byte.
func FuzzImageSlotDecode(f *testing.F) {
	valid := encodeSlot(slotHeader{epoch: 2, gen: 7, walBase: 31}, []byte("seed image"))
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn
	flipped := append([]byte(nil), valid...)
	flipped[40] ^= 0x01 // CRC
	f.Add(flipped)
	f.Add(encodeSlot(slotHeader{epoch: 1, walBase: 1}, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, image, err := decodeSlot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeSlot(h, image), data) {
			t.Fatal("accepted slot does not round-trip")
		}
	})
}

// FuzzWALRecordDecode checks that DecodeWALRecord never panics:
// corrupt or truncated input must error, and accepted records must
// round-trip through appendWALRecord.
func FuzzWALRecordDecode(f *testing.F) {
	f.Add(appendWALRecord(nil, 1, 1, []byte("insert batch")))
	f.Add(appendWALRecord(nil, 0, 0, nil))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, walRecordHeaderSize))
	torn := appendWALRecord(nil, 7, 3, bytes.Repeat([]byte{0xAB}, 100))
	f.Add(torn[:len(torn)-9])
	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := DecodeWALRecord(data)
		if err != nil {
			return
		}
		if n < walRecordHeaderSize || n > len(data) {
			t.Fatalf("accepted record reports %d consumed bytes of %d", n, len(data))
		}
		if !bytes.Equal(appendWALRecord(nil, r.LSN, r.Type, r.Payload), data[:n]) {
			t.Fatal("accepted record does not round-trip")
		}
	})
}
