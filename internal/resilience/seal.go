package resilience

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"unsafe"

	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tableio"
)

// Block sealing is the algorithm-based fault-tolerance layer (Huang &
// Abraham's ABFT tradition) at the paper's natural recovery granularity:
// the memory block, the unit one DMA transfer moves and one task
// computes (Section IV-A). When a task finishes a block, the block's
// bytes are digested into a CRC32C seal; because a sealed block is
// immutable for the rest of the solve, any later seal mismatch proves a
// silent fault (bad RAM, a stray write) corrupted it after completion.
// The engines then recompute only the corrupted block's dependent cone
// instead of restarting, Charm++/Cilk-style task replay on the NPDP
// dependence graph.

// sealCastagnoli is the CRC32C table block seals use — the same
// hardware-accelerated polynomial the serving layer digests with.
var sealCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// BlockCRC digests a memory block's cells into the CRC32C seal value:
// each cell serialized little-endian at its element width, exactly the
// byte stream the tableio and checkpoint codecs use. The digest is one
// crc32.Update over the whole block: on a little-endian host the cells'
// memory already is that byte stream, so it is hashed in place.
func BlockCRC[E semiring.Elem](cells []E) uint32 {
	if !hostLittleEndian {
		return crc32.Checksum(leBytes(cells), sealCastagnoli)
	}
	var e E
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(cells))), len(cells)*int(unsafe.Sizeof(e)))
	return crc32.Checksum(raw, sealCastagnoli)
}

// hostLittleEndian reports whether the host stores numbers
// little-endian, so a block's memory is its seal byte stream.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// leBytes serializes cells little-endian at their element width — the
// seal byte stream built explicitly, for big-endian hosts.
func leBytes[E semiring.Elem](cells []E) []byte {
	var e E
	width := int(unsafe.Sizeof(e))
	buf := make([]byte, len(cells)*width)
	for i, v := range cells {
		if width == 4 {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(float32(v)))
		} else {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(float64(v)))
		}
	}
	return buf
}

// CorruptBit flips one bit of one cell, both chosen deterministically
// from draw — the silent-fault model of FaultCorrupt. It returns the
// flipped cell index and bit position. Any single-bit flip changes the
// block's CRC32C, so an injected corruption is always detectable by a
// seal audit.
func CorruptBit[E semiring.Elem](cells []E, draw uint64) (cell, bit int) {
	if len(cells) == 0 {
		return 0, 0
	}
	var e E
	width := tableio.ElemWidth(e)
	cell = int(draw % uint64(len(cells)))
	bit = int((draw >> 32) % uint64(width*8))
	buf := make([]byte, 8)
	tableio.PutElem(buf, cells[cell])
	buf[bit/8] ^= 1 << (bit % 8)
	cells[cell] = tableio.GetElem[E](buf[:width])
	return cell, bit
}

// sealedBit marks a SealTable entry as holding a live seal; the low 32
// bits are the CRC32C. A zero entry is unsealed.
const sealedBit = uint64(1) << 63

// SealTable is the lock-free per-block seal store: one atomic word per
// memory block (dense block ID), holding a sealed flag plus the block's
// CRC32C. Each block is sealed exactly once per completion by the one
// task that computed it, so plain atomic stores suffice; the atomic also
// carries the happens-before an auditor needs — a task's block writes
// precede its Seal (release), an auditor's Sealed load (acquire)
// precedes its block reads, so audits never race with computation.
type SealTable struct {
	seals []atomic.Uint64
}

// NewSealTable allocates a table for n blocks, all unsealed.
func NewSealTable(n int) *SealTable {
	if n < 0 {
		panic(fmt.Sprintf("resilience: negative seal-table size %d", n))
	}
	return &SealTable{seals: make([]atomic.Uint64, n)}
}

// Len returns the number of block slots.
func (s *SealTable) Len() int { return len(s.seals) }

// Seal records crc as block id's seal.
func (s *SealTable) Seal(id int, crc uint32) {
	s.seals[id].Store(sealedBit | uint64(crc))
}

// Unseal clears block id's seal — the un-complete step of a heal round,
// before the block is restored and its task re-dispatched.
func (s *SealTable) Unseal(id int) {
	s.seals[id].Store(0)
}

// Sealed returns block id's recorded CRC and whether it is sealed.
func (s *SealTable) Sealed(id int) (crc uint32, ok bool) {
	v := s.seals[id].Load()
	return uint32(v), v&sealedBit != 0
}

// SealedCount returns how many blocks currently hold seals.
func (s *SealTable) SealedCount() int {
	n := 0
	for i := range s.seals {
		if s.seals[i].Load()&sealedBit != 0 {
			n++
		}
	}
	return n
}

// Verify re-digests cells and compares against block id's seal. An
// unsealed block verifies trivially (there is nothing to check yet).
func (s *SealTable) Verify(id int, cells func() uint32) bool {
	want, ok := s.Sealed(id)
	if !ok {
		return true
	}
	return cells() == want
}

// Seal-record serialization ("NPSL"), so seals can travel beside a
// checkpoint and be fuzzed adversarially:
//
//	magic   [4]byte "NPSL"
//	version uint16 (currently 1)
//	blocks  uint32 total block slots
//	sealed  uint32 number of records
//	records sealed × { id uint32, crc uint32 }, ids strictly ascending
//	crc     uint32 CRC-32 (IEEE) of every preceding byte
//
// The strictly-ascending id requirement makes the encoding canonical:
// truncated, bit-flipped, or record-reordered input fails the trailing
// checksum or the ordering check — it never decodes to a different
// seal set that would then verify.

// SealMagic identifies the seal-record format.
const SealMagic = "NPSL"

// SealVersion is the current seal-record format version.
const SealVersion uint16 = 1

// maxSealBlocks bounds the block count a reader will believe, matching
// the checkpoint reader's triangle bound so a hostile header cannot
// force a huge allocation before the checksum rejects it.
const maxSealBlocks = maxCheckpointBlocks * (maxCheckpointBlocks + 1) / 2

// WriteSeals serializes the table's sealed records.
func (s *SealTable) WriteSeals(w io.Writer) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	var ids []int
	for i := range s.seals {
		if s.seals[i].Load()&sealedBit != 0 {
			ids = append(ids, i)
		}
	}
	sort.Ints(ids)
	var magic [4]byte
	copy(magic[:], SealMagic)
	for _, v := range []any{magic, SealVersion, uint32(len(s.seals)), uint32(len(ids))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("resilience: writing seal header: %w", err)
		}
	}
	for _, id := range ids {
		c, _ := s.Sealed(id)
		if err := binary.Write(bw, binary.LittleEndian, [2]uint32{uint32(id), c}); err != nil {
			return fmt.Errorf("resilience: writing seal record: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("resilience: writing seal checksum: %w", err)
	}
	return nil
}

// ReadSeals decodes and fully validates a seal-record stream: magic,
// version, plausible sizes, strictly ascending in-range ids, and the
// trailing CRC. Corrupt, truncated, or reordered input returns an error.
func ReadSeals(r io.Reader) (*SealTable, error) {
	crc := crc32.NewIEEE()
	br := bufio.NewReader(r)
	tr := io.TeeReader(br, crc)
	var hdr struct {
		Magic   [4]byte
		Version uint16
		Blocks  uint32
		Sealed  uint32
	}
	if err := binary.Read(tr, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("resilience: reading seal header: %w", err)
	}
	if string(hdr.Magic[:]) != SealMagic {
		return nil, fmt.Errorf("resilience: bad seal magic %q", hdr.Magic)
	}
	if hdr.Version != SealVersion {
		return nil, fmt.Errorf("resilience: unsupported seal version %d", hdr.Version)
	}
	if hdr.Blocks > maxSealBlocks {
		return nil, fmt.Errorf("resilience: implausible seal-table size %d", hdr.Blocks)
	}
	if hdr.Sealed > hdr.Blocks {
		return nil, fmt.Errorf("resilience: %d seal records exceed %d block slots", hdr.Sealed, hdr.Blocks)
	}
	st := NewSealTable(int(hdr.Blocks))
	prev := -1
	for i := 0; i < int(hdr.Sealed); i++ {
		var rec [2]uint32
		if err := binary.Read(tr, binary.LittleEndian, &rec); err != nil {
			return nil, fmt.Errorf("resilience: reading seal record %d: %w", i, err)
		}
		id := int(rec[0])
		if id >= int(hdr.Blocks) {
			return nil, fmt.Errorf("resilience: seal record for block %d beyond %d slots", id, hdr.Blocks)
		}
		if id <= prev {
			return nil, fmt.Errorf("resilience: seal records out of order (%d after %d)", id, prev)
		}
		prev = id
		st.Seal(id, rec[1])
	}
	sum := crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("resilience: reading seal checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != sum {
		return nil, fmt.Errorf("resilience: seal checksum mismatch: file %08x, computed %08x", got, sum)
	}
	return st, nil
}

// ErrSealMismatch reports that one memory block's bytes do not digest to
// the CRC32C seal that travelled with (or was recorded for) them. It is
// the single-block, typed form of a seal-audit failure: a cluster
// coordinator receiving a boundary block can use it to distinguish
// transport/memory corruption (the carried seal does not match the
// carried bytes) from a stale-version boundary block (generation
// mismatch, which is not an error at all). Like CorruptionError it is
// never transient — re-reading the same bytes cannot fix them; recovery
// is a resend or the poisoned-cone heal path.
//
//npdplint:watch
type ErrSealMismatch struct {
	// Bi, Bj are the memory block's tile coordinates.
	Bi, Bj int
	// BlockID is the dense memory-block ID (tri.Tiled.BlockID order);
	// -1 when the reporter only knows coordinates.
	BlockID int
	// TaskID is the scheduler task that produced the block; -1 unknown.
	TaskID int
	// Want is the expected CRC32C (the seal); Got is the re-digest of
	// the bytes actually observed.
	Want, Got uint32
}

// Error names the block and both digests.
func (e *ErrSealMismatch) Error() string {
	return fmt.Sprintf("block seal mismatch: memory block (%d,%d) expected CRC32C %08x, got %08x",
		e.Bi, e.Bj, e.Want, e.Got)
}

// CorruptionError reports memory blocks whose seals failed an audit —
// the blocks' bytes changed after their tasks completed. It is never
// transient: retrying the discovering task cannot fix another block's
// bytes; recovery is the heal path (restore + recompute the cone).
//
//npdplint:watch
type CorruptionError struct {
	// Blocks are the corrupted memory blocks' tile coordinates.
	Blocks [][2]int
	// TaskIDs are the scheduler tasks that computed them.
	TaskIDs []int
	// Healed reports how many heal rounds were spent before giving up
	// (0 when healing was disabled).
	Healed int
}

// Error names the corrupted blocks and the recovery attempts made.
func (e *CorruptionError) Error() string {
	suffix := ""
	if e.Healed > 0 {
		suffix = fmt.Sprintf(" after %d heal rounds", e.Healed)
	}
	if len(e.Blocks) == 1 {
		return fmt.Sprintf("block seal audit: memory block (%d,%d) corrupted after completion%s",
			e.Blocks[0][0], e.Blocks[0][1], suffix)
	}
	return fmt.Sprintf("block seal audit: %d memory blocks corrupted after completion (first (%d,%d))%s",
		len(e.Blocks), e.Blocks[0][0], e.Blocks[0][1], suffix)
}

// HealStats counts the self-healing layer's work during one solve;
// engines fill it through ParallelOptions.HealStats / CellOptions.
type HealStats struct {
	// Audits is the number of seal-audit passes run (online + post-solve).
	Audits int
	// CorruptBlocks is the total seal mismatches detected.
	CorruptBlocks int
	// HealRounds is the number of poisoned-cone recompute rounds run.
	HealRounds int
	// RecomputedTasks is the total tasks re-dispatched across all rounds.
	RecomputedTasks int
	// CheckpointFallback reports that heal attempts were exhausted and
	// the solve fell back to reloading the on-disk checkpoint.
	CheckpointFallback bool
}
