package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tableio"
)

// TestBlockCRCMatchesByteStream pins the seal digest to the serialized
// byte stream: equal cells digest equal, any changed cell digests
// different, and float32/float64 widths digest independently.
func TestBlockCRCMatchesByteStream(t *testing.T) {
	cells := []float32{1, 2.5, -3, 1e30}
	a := BlockCRC(cells)
	if b := BlockCRC(append([]float32(nil), cells...)); b != a {
		t.Fatalf("equal blocks digest %08x vs %08x", a, b)
	}
	cells[2] = -3.0000002
	if b := BlockCRC(cells); b == a {
		t.Fatal("changed cell kept the same CRC")
	}
	if BlockCRC([]float64{1, 2.5}) == BlockCRC([]float32{1, 2.5}) {
		t.Fatal("float32 and float64 blocks digest identically")
	}
}

// perElementCRC is the seal digest written the long way — one hash
// write per cell through the tableio codec — which BlockCRC's
// single-pass form must reproduce bit for bit, so seal, spill and wire
// records stay compatible.
func perElementCRC[E semiring.Elem](cells []E) uint32 {
	h := crc32.New(sealCastagnoli)
	var e E
	width := tableio.ElemWidth(e)
	buf := make([]byte, 8)
	for _, v := range cells {
		tableio.PutElem(buf, v)
		h.Write(buf[:width])
	}
	return h.Sum32()
}

// TestBlockCRCPinnedToPerElementDigest pins BlockCRC, and the explicit
// little-endian path big-endian hosts take, to the per-element digest:
// f32 and f64 blocks, empty blocks, ±0, ±Inf and NaN payloads.
func TestBlockCRCPinnedToPerElementDigest(t *testing.T) {
	f32 := []float32{
		0, float32(math.Copysign(0, -1)), 1, -2.5, 1e30, 3.4e38,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffbfffff),
		math.Float32frombits(0x00000001),
	}
	f64 := []float64{
		0, math.Copysign(0, -1), 1, -2.5, 1e300, math.MaxFloat64,
		math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff7ffffffffffff),
		math.Float64frombits(1),
	}
	for n := 0; n <= len(f32); n++ {
		want := perElementCRC(f32[:n])
		if got := BlockCRC(f32[:n]); got != want {
			t.Errorf("f32[:%d]: BlockCRC %08x, per-element %08x", n, got, want)
		}
		if got := crc32.Checksum(leBytes(f32[:n]), sealCastagnoli); got != want {
			t.Errorf("f32[:%d]: little-endian stream %08x, per-element %08x", n, got, want)
		}
	}
	for n := 0; n <= len(f64); n++ {
		want := perElementCRC(f64[:n])
		if got := BlockCRC(f64[:n]); got != want {
			t.Errorf("f64[:%d]: BlockCRC %08x, per-element %08x", n, got, want)
		}
		if got := crc32.Checksum(leBytes(f64[:n]), sealCastagnoli); got != want {
			t.Errorf("f64[:%d]: little-endian stream %08x, per-element %08x", n, got, want)
		}
	}
	if got, want := BlockCRC[float32](nil), perElementCRC[float32](nil); got != want {
		t.Errorf("nil block: BlockCRC %08x, per-element %08x", got, want)
	}
	// A whole 88×88 block of mixed values, as the engines seal it.
	block := make([]float32, 88*88)
	for i := range block {
		block[i] = f32[i%len(f32)] * float32(i%7+1)
	}
	if got, want := BlockCRC(block), perElementCRC(block); got != want {
		t.Errorf("88×88 block: BlockCRC %08x, per-element %08x", got, want)
	}
}

// TestCorruptBitAlwaysDetectable asserts the silent-fault model's core
// property: every CorruptBit flip, for any draw, changes the block's
// CRC — an injected corruption can never slip past a seal audit.
func TestCorruptBitAlwaysDetectable(t *testing.T) {
	for draw := uint64(0); draw < 2000; draw += 37 {
		cells := []float32{0, 1, 2, 3, 4, 5, 6, 7}
		before := BlockCRC(cells)
		cell, bit := CorruptBit(cells, draw)
		if cell < 0 || cell >= len(cells) || bit < 0 || bit >= 32 {
			t.Fatalf("draw %d flipped out-of-range (cell %d, bit %d)", draw, cell, bit)
		}
		if BlockCRC(cells) == before {
			t.Fatalf("draw %d flip (cell %d, bit %d) is CRC-invisible", draw, cell, bit)
		}
	}
	// Empty blocks must be a safe no-op, not a panic.
	if c, b := CorruptBit([]float32{}, 99); c != 0 || b != 0 {
		t.Fatalf("empty block corrupt = (%d,%d)", c, b)
	}
}

// TestSealTableLifecycle covers seal, verify, unseal and the count.
func TestSealTableLifecycle(t *testing.T) {
	st := NewSealTable(4)
	if st.Len() != 4 || st.SealedCount() != 0 {
		t.Fatalf("fresh table: len=%d sealed=%d", st.Len(), st.SealedCount())
	}
	if _, ok := st.Sealed(2); ok {
		t.Fatal("unsealed block reports sealed")
	}
	// An unsealed block verifies trivially — nothing to check yet.
	if !st.Verify(2, func() uint32 { return 123 }) {
		t.Fatal("unsealed block failed Verify")
	}
	st.Seal(2, 0xdeadbeef)
	if crc, ok := st.Sealed(2); !ok || crc != 0xdeadbeef {
		t.Fatalf("Sealed(2) = (%08x, %v)", crc, ok)
	}
	if st.SealedCount() != 1 {
		t.Fatalf("sealed count = %d", st.SealedCount())
	}
	if !st.Verify(2, func() uint32 { return 0xdeadbeef }) {
		t.Fatal("matching CRC failed Verify")
	}
	if st.Verify(2, func() uint32 { return 0xdeadbeee }) {
		t.Fatal("mismatched CRC passed Verify")
	}
	// CRC zero must still read as sealed: the flag bit, not the value,
	// carries sealed-ness.
	st.Seal(0, 0)
	if crc, ok := st.Sealed(0); !ok || crc != 0 {
		t.Fatalf("zero-CRC seal = (%08x, %v)", crc, ok)
	}
	st.Unseal(2)
	if _, ok := st.Sealed(2); ok || st.SealedCount() != 1 {
		t.Fatal("Unseal left the seal live")
	}
}

// TestSealCodecRoundTrip writes a seal set and reads back an identical
// one.
func TestSealCodecRoundTrip(t *testing.T) {
	st := NewSealTable(10)
	st.Seal(0, 0)
	st.Seal(3, 0xcafebabe)
	st.Seal(9, 42)
	var buf bytes.Buffer
	if err := st.WriteSeals(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSeals(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 10 || got.SealedCount() != 3 {
		t.Fatalf("round trip: len=%d sealed=%d", got.Len(), got.SealedCount())
	}
	for id := 0; id < 10; id++ {
		wc, wok := st.Sealed(id)
		gc, gok := got.Sealed(id)
		if wc != gc || wok != gok {
			t.Fatalf("block %d: wrote (%08x,%v), read (%08x,%v)", id, wc, wok, gc, gok)
		}
	}
}

// TestSealCodecRejectsCorruption asserts the canonical-encoding claim
// directly: truncation, any bit flip, and record reordering all fail to
// decode.
func TestSealCodecRejectsCorruption(t *testing.T) {
	st := NewSealTable(8)
	st.Seal(1, 0x11111111)
	st.Seal(4, 0x44444444)
	var buf bytes.Buffer
	if err := st.WriteSeals(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	for cut := 0; cut < len(enc); cut++ {
		if _, err := ReadSeals(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", cut, len(enc))
		}
	}
	for i := 0; i < len(enc)*8; i++ {
		flipped := append([]byte(nil), enc...)
		flipped[i/8] ^= 1 << (i % 8)
		if _, err := ReadSeals(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("bit flip at %d decoded", i)
		}
	}
	// Swap the two 8-byte records and re-stamp the trailing CRC so only
	// the ordering check can reject it.
	reordered := append([]byte(nil), enc...)
	recs := reordered[14 : len(reordered)-4]
	for i := 0; i < 8; i++ {
		recs[i], recs[8+i] = recs[8+i], recs[i]
	}
	restamp(reordered)
	if _, err := ReadSeals(bytes.NewReader(reordered)); err == nil ||
		!strings.Contains(err.Error(), "out of order") {
		t.Fatalf("reordered records: err = %v, want ordering rejection", err)
	}
}

// TestSealCodecRejectsBadHeaders covers the header validations that run
// before any allocation: magic, version, implausible sizes.
func TestSealCodecRejectsBadHeaders(t *testing.T) {
	st := NewSealTable(3)
	st.Seal(1, 7)
	var buf bytes.Buffer
	if err := st.WriteSeals(&buf); err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, f func(b []byte)) {
		b := append([]byte(nil), buf.Bytes()...)
		f(b)
		restamp(b)
		if _, err := ReadSeals(bytes.NewReader(b)); err == nil {
			t.Errorf("%s decoded", name)
		}
	}
	mutate("bad magic", func(b []byte) { b[0] = 'X' })
	mutate("bad version", func(b []byte) { b[4] = 99 })
	mutate("implausible block count", func(b []byte) { b[6], b[7], b[8], b[9] = 0xff, 0xff, 0xff, 0xff })
	mutate("sealed > blocks", func(b []byte) { b[10] = 200 })
	mutate("record id beyond slots", func(b []byte) { b[14] = 5 })
}

// restamp recomputes the trailing IEEE CRC of a mutated seal encoding so
// tests can prove a structural check (not the checksum) rejects it.
func restamp(b []byte) {
	body := b[:len(b)-4]
	crc := crc32.ChecksumIEEE(body)
	b[len(b)-4] = byte(crc)
	b[len(b)-3] = byte(crc >> 8)
	b[len(b)-2] = byte(crc >> 16)
	b[len(b)-1] = byte(crc >> 24)
}

// TestErrSealMismatchTyped pins the typed seal-mismatch error: it carries
// block identity and both digests, and surfaces through errors.As from a
// wrapped chain the way a cluster coordinator consumes it.
func TestErrSealMismatchTyped(t *testing.T) {
	base := &ErrSealMismatch{Bi: 2, Bj: 5, BlockID: 17, TaskID: 4, Want: 0xdeadbeef, Got: 0x12345678}
	wrapped := fmt.Errorf("installing boundary block: %w", base)
	var sm *ErrSealMismatch
	if !errors.As(wrapped, &sm) {
		t.Fatal("errors.As failed to recover *ErrSealMismatch")
	}
	if sm.Bi != 2 || sm.Bj != 5 || sm.BlockID != 17 || sm.TaskID != 4 {
		t.Fatalf("identity fields lost: %+v", sm)
	}
	msg := sm.Error()
	for _, want := range []string{"(2,5)", "deadbeef", "12345678"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("Error() = %q, missing %q", msg, want)
		}
	}
}
