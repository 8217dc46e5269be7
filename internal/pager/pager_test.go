package pager

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cellnpdp/internal/resilience"
	"cellnpdp/internal/tri"
)

// testTable builds a small tiled table with distinct, deterministic cell
// values (not the Inf initial state, so content checks are meaningful).
func testTable(n, tile int) *tri.Tiled[float32] {
	t := tri.NewTiled[float32](n, tile)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			t.Set(i, j, float32(i*1000+j))
		}
	}
	return t
}

func newTestPager(t *testing.T, src *tri.Tiled[float32], opts Options) *Pager[float32] {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.npsp")
	p, err := Create(path, src, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestPagerAcquireReturnsPristineContent(t *testing.T) {
	src := testTable(40, 8) // 5 tiles per side, 15 blocks
	p := newTestPager(t, src, Options{Frames: 4})
	m := src.Blocks()
	for bi := 0; bi < m; bi++ {
		for bj := bi; bj < m; bj++ {
			cells, err := p.Acquire(bi, bj)
			if err != nil {
				t.Fatalf("Acquire(%d,%d): %v", bi, bj, err)
			}
			if want := src.Block(bi, bj); !equalCells(cells, want) {
				t.Fatalf("block (%d,%d) content mismatch after page-in", bi, bj)
			}
			p.Release(bi, bj)
		}
	}
	if st := p.Stats(); st.PristineReads != int64(p.NBlocks()) {
		t.Errorf("PristineReads = %d, want %d", st.PristineReads, p.NBlocks())
	}
}

func TestPagerEvictionBoundsResidentSet(t *testing.T) {
	src := testTable(40, 8)
	p := newTestPager(t, src, Options{Frames: 4})
	m := src.Blocks()
	for bi := 0; bi < m; bi++ {
		for bj := bi; bj < m; bj++ {
			if _, err := p.Acquire(bi, bj); err != nil {
				t.Fatalf("Acquire(%d,%d): %v", bi, bj, err)
			}
			p.Release(bi, bj)
		}
	}
	if got := p.Resident(); got > 4 {
		t.Errorf("resident = %d frames, budget 4", got)
	}
	if st := p.Stats(); st.Evictions == 0 {
		t.Error("no evictions despite touching 15 blocks through 4 frames")
	}
}

func TestPagerSpillAndRefetchFinalBlock(t *testing.T) {
	src := testTable(40, 8)
	p := newTestPager(t, src, Options{Frames: 4})
	// Complete block (0,0) with mutated content, then force it out.
	cells, err := p.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		cells[i] = float32(i) * 2
	}
	want := append([]float32(nil), cells...)
	if err := p.Complete(0, 0); err != nil {
		t.Fatal(err)
	}
	p.Release(0, 0)
	flushFrames(t, p, [2]int{0, 0})
	got, err := p.Acquire(0, 0)
	if err != nil {
		t.Fatalf("re-acquire after spill: %v", err)
	}
	if !equalCells(got, want) {
		t.Fatal("final block content changed across spill + fetch")
	}
	st := p.Stats()
	if st.SpilledBlocks == 0 || st.FetchedBlocks == 0 {
		t.Errorf("expected spill + fetch traffic, got %+v", st)
	}
}

// flushFrames evicts every unpinned frame by acquiring other blocks
// until the listed blocks are gone from the resident set.
func flushFrames(t *testing.T, p *Pager[float32], evict ...[2]int) {
	t.Helper()
	m := p.Blocks()
	for bi := 0; bi < m; bi++ {
		for bj := bi; bj < m; bj++ {
			skip := false
			for _, b := range evict {
				if b == [2]int{bi, bj} {
					skip = true
				}
			}
			if skip {
				continue
			}
			if _, err := p.Acquire(bi, bj); err != nil {
				t.Fatalf("flush acquire (%d,%d): %v", bi, bj, err)
			}
			p.Release(bi, bj)
		}
	}
}

func TestPagerTornWriteDetectedAndDemotable(t *testing.T) {
	src := testTable(40, 8)
	// Every write torn: the spill silently persists half a slot.
	p := newTestPager(t, src, Options{
		Frames: 4,
		Faults: &DiskFaults{Rate: 1, Kinds: []DiskFaultKind{DiskFaultTorn}},
	})
	cells, err := p.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		cells[i] = 7
	}
	if err := p.Complete(0, 0); err != nil {
		t.Fatal(err)
	}
	p.Release(0, 0)
	flushFrames(t, p, [2]int{0, 0})
	_, err = p.Acquire(0, 0)
	var pe *ErrPageCorrupt
	if !errors.As(err, &pe) {
		t.Fatalf("torn final slot paged in without *ErrPageCorrupt: err=%v", err)
	}
	if pe.Pristine {
		t.Fatalf("corruption attributed to the pristine version: %v", pe)
	}
	if pe.Bi != 0 || pe.Bj != 0 {
		t.Fatalf("corrupt block misattributed: %v", pe)
	}
	// The heal primitive: demote to pristine, re-acquire, get input bytes.
	p.Demote(0, 0)
	got, err := p.Acquire(0, 0)
	if err != nil {
		t.Fatalf("acquire after demote: %v", err)
	}
	if !equalCells(got, src.Block(0, 0)) {
		t.Fatal("demoted block did not revert to pristine content")
	}
	st := p.Stats()
	if st.FaultedPages == 0 {
		t.Error("no faulted pages counted for a torn write")
	}
	if st.PageHeals == 0 {
		t.Error("demoting the corrupt block did not count as a page heal")
	}
}

// TestPagerPristineReadSurvivesRepeatedFlips: a pristine page has no
// earlier version to heal from, so two transient read flips in a row
// must cost re-reads, not the solve.
func TestPagerPristineReadSurvivesRepeatedFlips(t *testing.T) {
	faults := func(seed int64) *DiskFaults {
		return &DiskFaults{Rate: 0.5, Seed: seed, Kinds: []DiskFaultKind{DiskFaultFlip}}
	}
	// The first seed whose first three read operations draw flip, flip,
	// then nothing.
	seed := int64(0)
	for ; ; seed++ {
		f := faults(seed)
		if f.plan(readFaultDomain) == DiskFaultFlip && f.plan(readFaultDomain) == DiskFaultFlip &&
			f.plan(readFaultDomain) == DiskFaultNone {
			break
		}
	}
	src := testTable(40, 8)
	p := newTestPager(t, src, Options{Frames: 4, Faults: faults(seed)})
	cells, err := p.Acquire(0, 0)
	if err != nil {
		t.Fatalf("pristine page-in after two transient flips: %v", err)
	}
	if !equalCells(cells, src.Block(0, 0)) {
		t.Fatal("pristine page-in returned flipped content")
	}
	if st := p.Stats(); st.FaultedPages != 2 || st.PageHeals != 1 {
		t.Errorf("FaultedPages = %d, PageHeals = %d; want 2 and 1", st.FaultedPages, st.PageHeals)
	}
}

func TestPagerENOSPCDegradesToResident(t *testing.T) {
	src := testTable(40, 8)
	p := newTestPager(t, src, Options{
		Frames: 4,
		Faults: &DiskFaults{Rate: 1, Kinds: []DiskFaultKind{DiskFaultENOSPC}},
	})
	// Complete every block; spills all fail, so finals must stay resident
	// and the set grows past the budget instead of losing data.
	m := src.Blocks()
	for bi := 0; bi < m; bi++ {
		for bj := bi; bj < m; bj++ {
			if _, err := p.Acquire(bi, bj); err != nil {
				t.Fatalf("Acquire(%d,%d): %v", bi, bj, err)
			}
			if err := p.Complete(bi, bj); err != nil {
				t.Fatal(err)
			}
			p.Release(bi, bj)
		}
	}
	st := p.Stats()
	if st.ENOSPCDegradations == 0 {
		t.Fatal("ENOSPC never recorded")
	}
	if got := p.Resident(); got != p.NBlocks() {
		t.Errorf("resident = %d, want all %d blocks held in memory", got, p.NBlocks())
	}
	if st.SpilledBlocks != 0 {
		t.Errorf("blocks reported spilled under total ENOSPC: %d", st.SpilledBlocks)
	}
	// Everything still materializes from the in-memory frames.
	out := tri.NewTiled[float32](src.Len(), src.Tile())
	if err := p.Materialize(out); err != nil {
		t.Fatalf("Materialize: %v", err)
	}
}

func TestPagerHardLimitReturnsErrSpillSpace(t *testing.T) {
	src := testTable(40, 8)
	p := newTestPager(t, src, Options{
		Frames:     2,
		HardFrames: 4,
		Faults:     &DiskFaults{Rate: 1, Kinds: []DiskFaultKind{DiskFaultENOSPC}},
	})
	m := src.Blocks()
	var spaceErr error
	for bi := 0; bi < m && spaceErr == nil; bi++ {
		for bj := bi; bj < m && spaceErr == nil; bj++ {
			_, err := p.Acquire(bi, bj)
			if err != nil {
				spaceErr = err
				break
			}
			if err := p.Complete(bi, bj); err != nil {
				t.Fatal(err)
			}
			p.Release(bi, bj)
		}
	}
	var se *ErrSpillSpace
	if !errors.As(spaceErr, &se) {
		t.Fatalf("hard ceiling under ENOSPC did not surface *ErrSpillSpace: %v", spaceErr)
	}
	if se.Limit != 4 {
		t.Errorf("ErrSpillSpace.Limit = %d, want 4", se.Limit)
	}
}

func TestPagerCommitAndReopenRecoversFinals(t *testing.T) {
	src := testTable(40, 8)
	path := filepath.Join(t.TempDir(), "t.npsp")
	p, err := Create(path, src, Options{Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Finalize (0,0) and (0,1) with known content, spill, commit.
	var want [2][]float32
	for i, b := range [][2]int{{0, 0}, {0, 1}} {
		cells, err := p.Acquire(b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		for k := range cells {
			cells[k] = float32(i*100 + k)
		}
		want[i] = append([]float32(nil), cells...)
		if err := p.Complete(b[0], b[1]); err != nil {
			t.Fatal(err)
		}
		p.Release(b[0], b[1])
	}
	flushFrames(t, p, [2]int{0, 0}, [2]int{0, 1})
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	// Simulate a SIGKILL: no Close, no final commit — reopen cold.
	p2, err := Open[float32](path, Options{Frames: 4})
	if err != nil {
		t.Fatalf("Open after simulated kill: %v", err)
	}
	defer p2.Close()
	for i, b := range [][2]int{{0, 0}, {0, 1}} {
		if !p2.IsFinal(b[0], b[1]) {
			t.Fatalf("committed final block (%d,%d) not recovered", b[0], b[1])
		}
		got, err := p2.Acquire(b[0], b[1])
		if err != nil {
			t.Fatalf("acquire recovered block: %v", err)
		}
		if !equalCells(got, want[i]) {
			t.Fatalf("recovered block (%d,%d) content mismatch", b[0], b[1])
		}
		p2.Release(b[0], b[1])
	}
	// A block never committed resumes from pristine.
	if p2.IsFinal(2, 3) {
		t.Error("uncommitted block recovered as final")
	}
	p.Close()
}

func TestPagerOpenRejectsUncommittedTornFinal(t *testing.T) {
	// A final slot written but never index-committed must be invisible
	// after restart: the block resumes from pristine even though region 1
	// holds (possibly torn) bytes.
	src := testTable(40, 8)
	path := filepath.Join(t.TempDir(), "t.npsp")
	p, err := Create(path, src, Options{Frames: 4, CommitEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := p.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		cells[i] = 9
	}
	if err := p.Complete(0, 0); err != nil {
		t.Fatal(err)
	}
	p.Release(0, 0)
	flushFrames(t, p, [2]int{0, 0}) // spills the final slot, but no commit
	p2, err := Open[float32](path, Options{Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.IsFinal(0, 0) {
		t.Fatal("final slot trusted without a committed index record")
	}
	got, err := p2.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !equalCells(got, src.Block(0, 0)) {
		t.Fatal("uncommitted block did not resume from pristine")
	}
	p.Close()
}

func TestPagerStaleTempsSweptAtOpen(t *testing.T) {
	src := testTable(40, 8)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.npsp")
	p, err := Create(path, src, Options{Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	// Orphan a dead-pid temp beside both spill files — what a SIGKILL
	// mid-create or mid-commit leaves behind.
	for _, orphan := range []string{"t.npsp.tmp-p999999-x", "t.npsp.idx.tmp-p999999-x"} {
		if err := os.WriteFile(filepath.Join(dir, orphan), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p2, err := Open[float32](path, Options{Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	p2.Close()
	leftovers, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Errorf("stale spill temps survived Open: %v", leftovers)
	}
}

func TestPagerMaterializeMatchesSource(t *testing.T) {
	src := testTable(40, 8)
	p := newTestPager(t, src, Options{Frames: 4})
	out := tri.NewTiled[float32](40, 8)
	if err := p.Materialize(out); err != nil {
		t.Fatal(err)
	}
	if !equalCells(out.Cells(), src.Cells()) {
		t.Fatal("materialized table differs from source")
	}
}

func TestPagerOpenRejectsWrongElemWidth(t *testing.T) {
	src := testTable(40, 8)
	path := filepath.Join(t.TempDir(), "t.npsp")
	p, err := Create(path, src, Options{Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := Open[float64](path, Options{Frames: 4}); err == nil {
		t.Fatal("float64 open of a float32 spill file succeeded")
	}
}

func equalCells(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validIndexBytes builds a canonical NPSX stream for the fuzz and
// adversarial suites.
func validIndexBytes(t testing.TB) []byte {
	t.Helper()
	g := spillGeom{N: 40, Tile: 8, Elem: 4, NBlocks: 15}
	var buf bytes.Buffer
	if err := writeIndex(&buf, g, []indexRecord{{ID: 1, CRC: 0xdead}, {ID: 4, CRC: 0xbeef}, {ID: 9, CRC: 0x1234}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestIndexRejectsEveryBitFlipAndTruncation(t *testing.T) {
	valid := validIndexBytes(t)
	if _, _, err := readIndex(bytes.NewReader(valid)); err != nil {
		t.Fatalf("canonical index rejected: %v", err)
	}
	// Bit flips at every byte: a single flip must never decode to a
	// different valid index (the CRC or a structural check catches it).
	for i := range valid {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 1 << bit
			if _, _, err := readIndex(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded successfully", i, bit)
			}
		}
	}
	// Truncation at every cut.
	for cut := 0; cut < len(valid); cut++ {
		if _, _, err := readIndex(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes decoded successfully", cut)
		}
	}
}

func TestIndexRejectsRecordCountBomb(t *testing.T) {
	// A hostile nfinal far beyond the triangle must be rejected before
	// any proportional allocation, not after.
	valid := validIndexBytes(t)
	bomb := append([]byte(nil), valid...)
	// nfinal lives at offset 4+2+2+8+4+4 = 24.
	bomb[24], bomb[25], bomb[26], bomb[27] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := readIndex(bytes.NewReader(bomb)); err == nil {
		t.Fatal("record-count bomb decoded successfully")
	}
}

func TestIndexRejectsReorderedRecords(t *testing.T) {
	g := spillGeom{N: 40, Tile: 8, Elem: 4, NBlocks: 15}
	var buf bytes.Buffer
	// writeIndex trusts the caller's order; hand it a descending pair and
	// fix the CRC by re-writing manually through the same encoder — the
	// reader must still reject on the ordering check.
	if err := writeIndex(&buf, g, []indexRecord{{ID: 4, CRC: 1}, {ID: 1, CRC: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readIndex(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("out-of-order records decoded successfully")
	}
}

// FuzzSpillRoundTrip drives the index reader with arbitrary bytes — the
// adversarial surface a restart trusts — and cross-checks the round
// trip: anything that decodes must re-encode to an identical canonical
// stream, and nothing may panic or over-allocate (the record-count
// bound is load-bearing here).
func FuzzSpillRoundTrip(f *testing.F) {
	f.Add(validIndexBytes(f))
	g := spillGeom{N: 16, Tile: 8, Elem: 4, NBlocks: 3}
	var empty bytes.Buffer
	if err := writeIndex(&empty, g, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte("NPSX"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		geom, records, err := readIndex(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as it never panics
		}
		var out bytes.Buffer
		if err := writeIndex(&out, geom, records); err != nil {
			t.Fatalf("decoded index failed to re-encode: %v", err)
		}
		reGeom, reRecords, err := readIndex(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded index rejected: %v", err)
		}
		if reGeom != geom || len(reRecords) != len(records) {
			t.Fatalf("round trip drifted: %+v/%d vs %+v/%d", geom, len(records), reGeom, len(reRecords))
		}
		for i := range records {
			if records[i] != reRecords[i] {
				t.Fatalf("record %d drifted: %+v vs %+v", i, records[i], reRecords[i])
			}
		}
	})
}

func TestRemoveStaleTempsSweepsSpillTemps(t *testing.T) {
	// The satellite contract: the shared sweep covers spill-style stems
	// (data file and index), not just checkpoint temps.
	dir := t.TempDir()
	spill := filepath.Join(dir, "solve.npsp")
	own, err := resilience.CreateOwnedTemp(spill)
	if err != nil {
		t.Fatal(err)
	}
	own.Close()
	dead := filepath.Join(dir, "solve.npsp.tmp-p999999-y")
	if err := os.WriteFile(dead, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	unrelated := filepath.Join(dir, "other.npsp")
	if err := os.WriteFile(unrelated, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := resilience.RemoveStaleTemps(spill)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Errorf("removed %d temps, want 2 (own + dead pid)", removed)
	}
	if _, err := os.Stat(unrelated); err != nil {
		t.Errorf("unrelated sibling removed: %v", err)
	}
}
