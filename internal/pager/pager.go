// Package pager is the crash-consistent out-of-core layer: it spills
// cold NDL memory blocks to a CRC-sealed, dual-version spill file so a
// solve streams through a bounded resident set instead of holding the
// whole table — the paper's SPE local-store discipline (a small fast
// memory fed by whole-block transfers, Section IV-A) projected onto the
// RAM/disk boundary. The NDL layout is what makes this work: every
// memory block is contiguous, immutable once its task completes, and
// moves in one large transfer.
//
// Robustness contract: every slot carries the block's CRC32C
// (resilience.BlockCRC — the same digest the in-memory seal layer and
// the cluster wire frames use), the spill index that decides which
// final slots a restart may trust is committed with the atomic
// temp+rename discipline (data fsync ordered first), and every page-in
// re-verifies the digest. Torn writes, bit rot, and EIO therefore
// surface as typed *ErrPageCorrupt for the engine's poisoned-cone heal;
// ENOSPC degrades to a growing in-memory working set; a SIGKILL
// mid-spill leaves a committed index a restart resumes from
// bit-identically.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"syscall"

	"cellnpdp/internal/resilience"
	"cellnpdp/internal/semiring"
	"cellnpdp/internal/tableio"
	"cellnpdp/internal/tri"
)

// Stats counts the pager's work during one solve. Byte counts cover
// slot payloads plus their CRC trailers — the actual disk traffic the
// cachesim I/O lower bound is compared against.
type Stats struct {
	// SpilledBlocks/SpilledBytes count final-block writes to the spill
	// file (evictions of completed blocks).
	SpilledBlocks, SpilledBytes int64
	// FetchedBlocks/FetchedBytes count final-block page-ins.
	FetchedBlocks, FetchedBytes int64
	// PristineReads/PristineBytes count pristine-version page-ins (cold
	// first touches and post-heal refetches).
	PristineReads, PristineBytes int64
	// Evictions counts frames reclaimed (spilled or dropped clean).
	Evictions int64
	// FaultedPages counts failed page-in attempts: injected or real read
	// errors plus digest mismatches (torn writes, bit rot).
	FaultedPages int64
	// PageHeals counts recoveries from those faults: read retries that
	// verified, plus corrupt final blocks demoted back to pristine for
	// cone recompute.
	PageHeals int64
	// ENOSPCDegradations counts spill writes abandoned for lack of disk
	// space; after the first the pager stops spilling and degrades to a
	// growing in-memory working set.
	ENOSPCDegradations int64
	// SpillErrors counts non-ENOSPC spill-write failures (EIO); the
	// block stays resident and the eviction is retried later.
	SpillErrors int64
	// Commits counts index publications (temp+rename renames).
	Commits int64
	// ResidentPeak is the maximum resident frame count observed;
	// OverBudget counts frames allocated past the configured budget
	// because every in-budget frame was pinned or unspillable.
	ResidentPeak, OverBudget int64
}

// Health is the /healthz view of the counters, keyed the way the serve
// layer exports them.
func (s Stats) Health() map[string]any {
	return map[string]any{
		"spilled_blocks":      s.SpilledBlocks,
		"spilled_bytes":       s.SpilledBytes,
		"fetched_blocks":      s.FetchedBlocks,
		"fetched_bytes":       s.FetchedBytes,
		"pristine_reads":      s.PristineReads,
		"faulted_pages":       s.FaultedPages,
		"page_heals":          s.PageHeals,
		"enospc_degradations": s.ENOSPCDegradations,
		"evictions":           s.Evictions,
		"commits":             s.Commits,
		"resident_peak":       s.ResidentPeak,
		"over_budget":         s.OverBudget,
	}
}

// DiskBytes is the total spill traffic in both directions — the
// achieved figure reported against the cachesim I/O lower bound.
func (s Stats) DiskBytes() int64 {
	return s.SpilledBytes + s.FetchedBytes + s.PristineBytes
}

// Options configures a Pager.
type Options struct {
	// Frames is the resident-set budget in frames (one frame = one
	// tile×tile block). The budget is soft: when every in-budget frame
	// is pinned or unspillable the pager allocates past it (counted in
	// Stats.OverBudget) rather than deadlock. Values below the floor of
	// 4 are clamped.
	Frames int
	// HardFrames, when positive, is the absolute resident ceiling: if
	// degradation (pins, ENOSPC no-spill mode) would grow the resident
	// set past it, the pager fails with *ErrSpillSpace instead. 0 means
	// unlimited (degrade all the way to fully in-memory).
	HardFrames int
	// CommitEvery is the index-commit period in spilled blocks; 0 means
	// 16. Commit() and Close() always publish regardless.
	CommitEvery int
	// Faults, when non-nil, is the deterministic disk-fault injector.
	Faults *DiskFaults
	// Logf, when non-nil, receives operational messages (degradations,
	// retried faults). Nil is silent; counters still record everything.
	Logf func(format string, args ...any)
}

// Pager pages one triangular table's memory blocks between a bounded
// in-RAM frame set and the dual-version spill file. All methods are
// safe for concurrent use.
//
// Block life cycle: a block faults in from its pristine slot, is pinned
// (Acquire) while a task reads or computes it, and becomes final
// (Complete) when its computing task finishes — final blocks are
// immutable, which is what makes spill-once-on-eviction sound. Eviction
// takes the least-recently-used unpinned frame: clean blocks drop
// (pristine is already on disk), final blocks spill to their final slot
// first. Pinning is the dependence-cone guard: the engine pins a task's
// stage-1 operands before dispatch, so the wavefront's working set can
// never be evicted under it.
type Pager[E semiring.Elem] struct {
	mu sync.Mutex

	f        *os.File
	path     string
	idxPath  string
	geom     spillGeom
	m        int // blocks per side
	opts     Options
	frames   map[int]*frameOf[E]
	final    []bool
	spilled  []bool
	crc      []uint32
	corrupt  map[int]bool
	noSpill  bool // sticky ENOSPC degradation: stop spilling, grow resident
	tick     uint64
	sinceCmt int
	closed   bool
	stats    Stats
	prefetch chan struct{} // limits in-flight async prefetches (double buffer)

	// lastSpillErr is the most recent spill failure, carried into an
	// *ErrSpillSpace if degradation later hits the hard ceiling.
	lastSpillErr error
}

// frameOf is one resident block's frame.
type frameOf[E semiring.Elem] struct {
	cells   []E
	pins    int
	lastUse uint64
}

const (
	minFrames          = 4
	defaultCommitEvery = 16
	prefetchSlots      = 2 // the cellsim double-buffer depth
	// pageInRetries is the re-reads before declaring a page corrupt: a
	// pristine page or one read by Materialize has nothing left to heal
	// from, so a transient read fault earns several.
	pageInRetries  = 3
	regionPristine = 0
	regionFinal    = 1
)

// Create builds a fresh spill file at path from the source table and
// returns a pager over it: the header and every block's pristine slot
// are written through a pid-tagged temp and atomically renamed into
// place (a crash mid-create leaves only a sweepable temp, never a
// half-valid spill file), then an empty index is committed beside it at
// `<path>.idx`. Stale temps of crashed predecessors are swept first.
// The source table is not retained — callers drop it so the solve's
// footprint is the frame budget, not the table.
func Create[E semiring.Elem](path string, src *tri.Tiled[E], opts Options) (*Pager[E], error) {
	var e E
	g := spillGeom{
		N:       src.Len(),
		Tile:    src.Tile(),
		Elem:    tableio.ElemWidth(e),
		NBlocks: src.Blocks() * (src.Blocks() + 1) / 2,
	}
	if err := g.check(); err != nil {
		return nil, err
	}
	idxPath := path + ".idx"
	for _, target := range []string{path, idxPath} {
		if _, err := resilience.RemoveStaleTemps(target); err != nil {
			return nil, err
		}
	}
	tmp, err := resilience.CreateOwnedTemp(path)
	if err != nil {
		return nil, fmt.Errorf("pager: creating spill temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := writePristineRegion(tmp, g, src); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return nil, fmt.Errorf("pager: syncing spill file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return nil, fmt.Errorf("pager: closing spill file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return nil, fmt.Errorf("pager: publishing spill file: %w", err)
	}
	if err := commitIndex(idxPath, g, nil); err != nil {
		return nil, err
	}
	return newPager[E](path, idxPath, g, nil, opts)
}

// writePristineRegion lays out the full (sparse) file and writes every
// block's pristine slot with its CRC trailer. Create-time writes bypass
// the fault injector: the injector models the solve's spill traffic,
// and a faulted create would just fail the rename-protected setup.
func writePristineRegion[E semiring.Elem](f *os.File, g spillGeom, src *tri.Tiled[E]) error {
	if err := f.Truncate(g.fileSize()); err != nil {
		return fmt.Errorf("pager: sizing spill file: %w", err)
	}
	if _, err := f.WriteAt(encodeSpillHeader(g), 0); err != nil {
		return fmt.Errorf("pager: writing spill header: %w", err)
	}
	m := src.Blocks()
	buf := make([]byte, g.slotBytes())
	for bi := 0; bi < m; bi++ {
		for bj := bi; bj < m; bj++ {
			id := src.BlockID(bi, bj)
			encodeSlot(src.Block(bi, bj), buf, g.Elem)
			if _, err := f.WriteAt(buf, g.slotOff(regionPristine, id)); err != nil {
				return fmt.Errorf("pager: writing pristine block (%d,%d): %w", bi, bj, err)
			}
		}
	}
	return nil
}

// Open resumes a pager over an existing spill file: the data header is
// validated (magic, version, element width, geometry plausibility,
// header CRC, file size), stale temps are swept, and the committed
// index — if one exists — decides which final slots are trusted. Blocks
// the index does not cover resume from pristine and are recomputed;
// their final slots may hold torn bytes from the crashed run, which is
// fine because nothing ever reads an uncommitted final slot.
func Open[E semiring.Elem](path string, opts Options) (*Pager[E], error) {
	idxPath := path + ".idx"
	for _, target := range []string{path, idxPath} {
		if _, err := resilience.RemoveStaleTemps(target); err != nil {
			return nil, err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pager: opening spill file: %w", err)
	}
	g, err := decodeSpillHeader(f)
	if closeErr := f.Close(); err == nil && closeErr != nil {
		err = fmt.Errorf("pager: closing spill file: %w", closeErr)
	}
	if err != nil {
		return nil, err
	}
	var e E
	if got, want := g.Elem, tableio.ElemWidth(e); got != want {
		return nil, fmt.Errorf("pager: spill file holds %d-byte elements, requested type has %d", got, want)
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("pager: sizing spill file: %w", err)
	}
	if st.Size() != g.fileSize() {
		return nil, fmt.Errorf("pager: spill file is %d bytes, geometry requires %d", st.Size(), g.fileSize())
	}
	ig, records, haveIdx, err := loadIndex(idxPath)
	if err != nil {
		return nil, err
	}
	if haveIdx && ig != g {
		return nil, fmt.Errorf("pager: index geometry n=%d tile=%d does not match spill file n=%d tile=%d",
			ig.N, ig.Tile, g.N, g.Tile)
	}
	return newPager[E](path, idxPath, g, records, opts)
}

// newPager opens the data file read-write and builds the runtime state.
func newPager[E semiring.Elem](path, idxPath string, g spillGeom, records []indexRecord, opts Options) (*Pager[E], error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("pager: opening spill file: %w", err)
	}
	if opts.Frames < minFrames {
		opts.Frames = minFrames
	}
	if opts.CommitEvery <= 0 {
		opts.CommitEvery = defaultCommitEvery
	}
	p := &Pager[E]{
		f:        f,
		path:     path,
		idxPath:  idxPath,
		geom:     g,
		m:        (g.N + g.Tile - 1) / g.Tile,
		opts:     opts,
		frames:   make(map[int]*frameOf[E]),
		final:    make([]bool, g.NBlocks),
		spilled:  make([]bool, g.NBlocks),
		crc:      make([]uint32, g.NBlocks),
		corrupt:  make(map[int]bool),
		prefetch: make(chan struct{}, prefetchSlots),
	}
	for _, rec := range records {
		p.final[rec.ID] = true
		p.spilled[rec.ID] = true
		p.crc[rec.ID] = rec.CRC
	}
	return p, nil
}

// Len returns the logical problem size; Tile the block side in cells;
// Blocks the tiles per side; NBlocks the dense block count.
func (p *Pager[E]) Len() int     { return p.geom.N }
func (p *Pager[E]) Tile() int    { return p.geom.Tile }
func (p *Pager[E]) Blocks() int  { return p.m }
func (p *Pager[E]) NBlocks() int { return p.geom.NBlocks }

// Path returns the spill data file path; IndexPath the index beside it.
func (p *Pager[E]) Path() string      { return p.path }
func (p *Pager[E]) IndexPath() string { return p.idxPath }

// blockID maps tile coordinates to the dense upper-triangle index —
// the same row-major-over-the-triangle order tri.Tiled.BlockID uses.
func (p *Pager[E]) blockID(bi, bj int) int {
	if bi < 0 || bj < bi || bj >= p.m {
		panic(fmt.Sprintf("pager: block (%d,%d) outside upper triangle of %d tiles", bi, bj, p.m))
	}
	return bi*p.m - bi*(bi-1)/2 + (bj - bi)
}

// Acquire faults block (bi, bj) into a resident frame, pins it, and
// returns its cells. The caller must Release exactly once per Acquire.
// A final block that fails its digest check (after one retry) is
// reported as *ErrPageCorrupt for the engine's cone heal; a pristine
// block that fails has no earlier version and is unrecoverable.
func (p *Pager[E]) Acquire(bi, bj int) ([]E, error) {
	id := p.blockID(bi, bj)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("pager: acquire on closed pager")
	}
	if fr, ok := p.frames[id]; ok {
		fr.pins++
		p.tick++
		fr.lastUse = p.tick
		return fr.cells, nil
	}
	cells, err := p.readBlockLocked(id, bi, bj)
	if err != nil {
		return nil, err
	}
	fr, err := p.installLocked(id, cells)
	if err != nil {
		return nil, err
	}
	fr.pins++
	return fr.cells, nil
}

// Release unpins block (bi, bj), making its frame evictable again once
// the pin count reaches zero.
func (p *Pager[E]) Release(bi, bj int) {
	id := p.blockID(bi, bj)
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr, ok := p.frames[id]; ok && fr.pins > 0 {
		fr.pins--
	}
}

// Complete marks block (bi, bj) final: its computing task finished, the
// content is immutable from here on, and its CRC32C becomes the block's
// seal — the digest every later spill, page-in, and index record is
// checked against. The block must be resident and pinned (the engine
// calls Complete before releasing the block it just computed).
func (p *Pager[E]) Complete(bi, bj int) error {
	id := p.blockID(bi, bj)
	p.mu.Lock()
	defer p.mu.Unlock()
	fr, ok := p.frames[id]
	if !ok || fr.pins == 0 {
		return fmt.Errorf("pager: Complete(%d,%d) on a block that is not resident and pinned", bi, bj)
	}
	p.final[id] = true
	p.spilled[id] = false
	p.crc[id] = resilience.BlockCRC(fr.cells)
	return nil
}

// IsFinal reports whether block (bi, bj) holds its final content —
// either computed this run or recovered from the committed index.
func (p *Pager[E]) IsFinal(bi, bj int) bool {
	id := p.blockID(bi, bj)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.final[id]
}

// Demote reverts block (bi, bj) to its pristine version: the frame is
// dropped and the final mark cleared, so the next Acquire re-reads the
// pristine slot. This is the heal primitive — the engine demotes a
// corrupt block's whole dependence cone (sched.Graph.Cone) and re-runs
// those tasks, exactly the in-memory poisoned-cone discipline. Demoting
// the block that faulted counts as a page heal.
func (p *Pager[E]) Demote(bi, bj int) {
	id := p.blockID(bi, bj)
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.frames, id)
	p.final[id] = false
	p.spilled[id] = false
	p.crc[id] = 0
	if p.corrupt[id] {
		delete(p.corrupt, id)
		p.stats.PageHeals++
	}
}

// Prefetch starts an asynchronous page-in of block (bi, bj) without
// pinning it — the disk half of the cellsim double-buffer discipline
// (compute block k while block k+1 streams in). At most two prefetches
// are in flight; extras and already-resident blocks are no-ops. A
// prefetch that faults is silently dropped: the eventual Acquire
// re-reads synchronously and surfaces the typed error.
func (p *Pager[E]) Prefetch(bi, bj int) {
	select {
	case p.prefetch <- struct{}{}:
	default:
		return // both buffers busy; the Acquire will fault it in
	}
	go func() {
		defer func() { <-p.prefetch }()
		id := p.blockID(bi, bj)
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.closed {
			return
		}
		if _, ok := p.frames[id]; ok {
			return
		}
		cells, err := p.readBlockLocked(id, bi, bj)
		if err != nil {
			return // Acquire retries and reports
		}
		// Ignoring the install error is safe for the same reason: a
		// hard-limit failure will recur at Acquire time, typed.
		if _, err := p.installLocked(id, cells); err != nil && p.opts.Logf != nil {
			p.opts.Logf("pager: prefetch of block (%d,%d) dropped: %v", bi, bj, err)
		}
	}()
}

// installLocked places cells into a frame for id, evicting to stay
// within the budget. Caller holds p.mu.
func (p *Pager[E]) installLocked(id int, cells []E) (*frameOf[E], error) {
	if err := p.makeRoomLocked(); err != nil {
		return nil, err
	}
	if len(p.frames) >= p.opts.Frames {
		p.stats.OverBudget++
	}
	p.tick++
	fr := &frameOf[E]{cells: cells, lastUse: p.tick}
	p.frames[id] = fr
	if n := int64(len(p.frames)); n > p.stats.ResidentPeak {
		p.stats.ResidentPeak = n
	}
	return fr, nil
}

// makeRoomLocked evicts least-recently-used unpinned frames until the
// resident count is under budget. When nothing is evictable (all
// pinned, or final blocks that cannot spill in no-spill mode) the
// resident set grows past the budget — the graceful-degradation tier —
// unless the hard ceiling says otherwise. Caller holds p.mu.
func (p *Pager[E]) makeRoomLocked() error {
	for len(p.frames) >= p.opts.Frames {
		victim := -1
		var oldest uint64
		for id, fr := range p.frames {
			if fr.pins > 0 {
				continue
			}
			if p.final[id] && !p.spilled[id] && p.noSpill {
				continue // unspillable under ENOSPC degradation
			}
			if victim < 0 || fr.lastUse < oldest {
				victim, oldest = id, fr.lastUse
			}
		}
		if victim < 0 {
			break // nothing evictable: degrade by growing the resident set
		}
		if !p.evictLocked(victim) {
			break // spill failed; the block must stay resident
		}
	}
	if p.opts.HardFrames > 0 && len(p.frames) >= p.opts.HardFrames {
		return &ErrSpillSpace{Resident: len(p.frames), Limit: p.opts.HardFrames, Err: p.lastSpillErr}
	}
	return nil
}

// evictLocked reclaims one frame, spilling a final block's content to
// its final slot first. Returns false when the block could not be
// evicted (its spill failed) — the caller then stops evicting and lets
// the resident set grow. Caller holds p.mu.
func (p *Pager[E]) evictLocked(id int) bool {
	fr := p.frames[id]
	if p.final[id] && !p.spilled[id] {
		if p.noSpill || !p.spillLocked(id, fr.cells) {
			return false
		}
	}
	delete(p.frames, id)
	p.stats.Evictions++
	return true
}

// spillLocked writes block id's final slot (payload + CRC trailer) and
// marks it spilled. ENOSPC flips the sticky no-spill degradation; EIO
// leaves the block resident for a later retry. Caller holds p.mu.
func (p *Pager[E]) spillLocked(id int, cells []E) bool {
	buf := make([]byte, p.geom.slotBytes())
	encodeSlot(cells, buf, p.geom.Elem)
	var err error
	if p.opts.Faults != nil {
		_, err = p.opts.Faults.writeAt(p.f, buf, p.geom.slotOff(regionFinal, id))
	} else {
		_, err = p.f.WriteAt(buf, p.geom.slotOff(regionFinal, id))
	}
	if err != nil {
		p.lastSpillErr = err
		if isNoSpace(err) {
			p.noSpill = true
			p.stats.ENOSPCDegradations++
			if p.opts.Logf != nil {
				p.opts.Logf("pager: spill of block %d failed (%v); degrading to in-memory working set", id, err)
			}
		} else {
			p.stats.SpillErrors++
			if p.opts.Logf != nil {
				p.opts.Logf("pager: spill of block %d failed (%v); keeping it resident", id, err)
			}
		}
		return false
	}
	p.spilled[id] = true
	p.stats.SpilledBlocks++
	p.stats.SpilledBytes += int64(len(buf))
	if p.sinceCmt++; p.sinceCmt >= p.opts.CommitEvery {
		p.sinceCmt = 0
		if err := p.commitLocked(); err != nil && p.opts.Logf != nil {
			// A failed periodic commit is not fatal mid-solve: the
			// previous committed index stays valid, only resume coverage
			// shrinks. Close() surfaces a final commit failure.
			p.opts.Logf("pager: periodic index commit failed: %v", err)
		}
	}
	return true
}

// readBlockLocked reads block id's authoritative version from disk —
// the final slot when one is trusted, the pristine slot otherwise —
// verifying the CRC trailer (and, for final blocks, the recorded seal)
// with pageInRetries re-reads. Caller holds p.mu.
func (p *Pager[E]) readBlockLocked(id, bi, bj int) ([]E, error) {
	region, want := regionPristine, uint32(0)
	sealed := false
	if p.final[id] && p.spilled[id] {
		region, want, sealed = regionFinal, p.crc[id], true
	}
	buf := make([]byte, p.geom.slotBytes())
	off := p.geom.slotOff(region, id)
	var lastErr error
	for attempt := 0; attempt <= pageInRetries; attempt++ {
		var err error
		if p.opts.Faults != nil {
			_, err = p.opts.Faults.readAt(p.f, buf, off)
		} else {
			_, err = p.f.ReadAt(buf, off)
		}
		if err != nil {
			p.stats.FaultedPages++
			lastErr = err
			continue
		}
		cells, got, ok := decodeSlot[E](buf, p.geom)
		if ok && (!sealed || got == want) {
			if attempt > 0 {
				p.stats.PageHeals++ // a retry recovered the page
			}
			p.countReadLocked(region, len(buf))
			return cells, nil
		}
		p.stats.FaultedPages++
		lastErr = &ErrPageCorrupt{Bi: bi, Bj: bj, Pristine: region == regionPristine, Want: want, Got: got}
		if !sealed {
			// The pristine trailer is self-describing; report it.
			lastErr.(*ErrPageCorrupt).Want = trailerCRC(buf)
		}
	}
	if pe, ok := lastErr.(*ErrPageCorrupt); ok {
		p.corrupt[id] = true
		return nil, pe
	}
	p.corrupt[id] = true
	return nil, &ErrPageCorrupt{Bi: bi, Bj: bj, Pristine: region == regionPristine, Err: lastErr}
}

// countReadLocked attributes one successful page-in to its region.
func (p *Pager[E]) countReadLocked(region, nbytes int) {
	if region == regionFinal {
		p.stats.FetchedBlocks++
		p.stats.FetchedBytes += int64(nbytes)
	} else {
		p.stats.PristineReads++
		p.stats.PristineBytes += int64(nbytes)
	}
}

// Commit fsyncs the data file and atomically publishes the index of
// every spilled final block — the durability point a restart resumes
// from. The data sync is ordered before the index rename, so a
// committed record never trusts unsynced bytes.
func (p *Pager[E]) Commit() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.commitLocked()
}

// commitLocked is Commit's body; caller holds p.mu.
func (p *Pager[E]) commitLocked() error {
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("pager: syncing spill file: %w", err)
	}
	var records []indexRecord
	for id := 0; id < p.geom.NBlocks; id++ {
		if p.final[id] && p.spilled[id] {
			records = append(records, indexRecord{ID: id, CRC: p.crc[id]})
		}
	}
	sort.Slice(records, func(i, j int) bool { return records[i].ID < records[j].ID })
	if err := commitIndex(p.idxPath, p.geom, records); err != nil {
		return err
	}
	p.stats.Commits++
	return nil
}

// Materialize copies every block's current content — resident frames
// first, otherwise the authoritative disk version — into dst, which
// must have the pager's geometry. It is how a finished solve's table
// leaves the pager.
func (p *Pager[E]) Materialize(dst *tri.Tiled[E]) error {
	if dst.Len() != p.geom.N || dst.Tile() != p.geom.Tile {
		return fmt.Errorf("pager: cannot materialize (n=%d tile=%d) into table (n=%d tile=%d)",
			p.geom.N, p.geom.Tile, dst.Len(), dst.Tile())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for bi := 0; bi < p.m; bi++ {
		for bj := bi; bj < p.m; bj++ {
			id := p.blockID(bi, bj)
			if fr, ok := p.frames[id]; ok {
				copy(dst.Block(bi, bj), fr.cells)
				continue
			}
			cells, err := p.readBlockLocked(id, bi, bj)
			if err != nil {
				return err
			}
			copy(dst.Block(bi, bj), cells)
		}
	}
	return nil
}

// Verify re-reads every final block whose only copy is its spill slot
// and checks it against its seal, without installing a frame. A slot
// that tore on its one write and was never paged in again otherwise
// surfaces first in Materialize, after the engine could heal it; Verify
// reports it as *ErrPageCorrupt while it still can. In-flight
// prefetches land first: one could still evict, and spill, a block.
func (p *Pager[E]) Verify() error {
	for i := 0; i < prefetchSlots; i++ {
		p.prefetch <- struct{}{}
	}
	defer func() {
		for i := 0; i < prefetchSlots; i++ {
			<-p.prefetch
		}
	}()
	p.mu.Lock()
	defer p.mu.Unlock()
	for bi := 0; bi < p.m; bi++ {
		for bj := bi; bj < p.m; bj++ {
			id := p.blockID(bi, bj)
			if _, resident := p.frames[id]; resident || !p.final[id] || !p.spilled[id] {
				continue
			}
			if _, err := p.readBlockLocked(id, bi, bj); err != nil {
				return err
			}
		}
	}
	return nil
}

// Resident returns the current resident frame count.
func (p *Pager[E]) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// Stats returns a snapshot of the counters.
func (p *Pager[E]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close flushes resident final blocks to their spill slots, commits the
// index one last time, and closes the spill file. The files stay on
// disk — they are the resume state; callers that do not want resume
// delete them. Flush failures (a disk in ENOSPC degradation) are not
// errors: those blocks simply resume from pristine, which is correct,
// just slower.
func (p *Pager[E]) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	for id, fr := range p.frames {
		if p.noSpill {
			break
		}
		if p.final[id] && !p.spilled[id] && fr.pins == 0 {
			p.spillLocked(id, fr.cells)
		}
	}
	err := p.commitLocked()
	if closeErr := p.f.Close(); err == nil && closeErr != nil {
		err = fmt.Errorf("pager: closing spill file: %w", closeErr)
	}
	return err
}

// Remove deletes the spill data file and index — the cleanup for solves
// that do not keep resume state. Call after Close.
func (p *Pager[E]) Remove() error {
	var first error
	for _, path := range []string{p.path, p.idxPath} {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
}

// encodeSlot serializes cells little-endian at their element width and
// appends the CRC32C trailer.
func encodeSlot[E semiring.Elem](cells []E, buf []byte, width int) {
	for i, v := range cells {
		tableio.PutElem(buf[i*width:], v)
	}
	payload := len(cells) * width
	putTrailer(buf[payload:], resilience.BlockCRC(cells))
}

// decodeSlot deserializes a slot and verifies its trailer; got is the
// content digest regardless of match.
func decodeSlot[E semiring.Elem](buf []byte, g spillGeom) (cells []E, got uint32, ok bool) {
	n := g.Tile * g.Tile
	cells = make([]E, n)
	for i := 0; i < n; i++ {
		cells[i] = tableio.GetElem[E](buf[i*g.Elem:])
	}
	got = resilience.BlockCRC(cells)
	return cells, got, got == trailerCRC(buf)
}

// trailerCRC reads a slot's 4-byte CRC32C trailer; putTrailer writes it.
func trailerCRC(slot []byte) uint32 {
	return binary.LittleEndian.Uint32(slot[len(slot)-4:])
}

func putTrailer(trailer []byte, crc uint32) {
	binary.LittleEndian.PutUint32(trailer, crc)
}

// isNoSpace reports whether a spill failure is a disk-space exhaustion
// (ENOSPC or EDQUOT) — the fault that flips the sticky in-memory
// degradation, as opposed to an EIO worth retrying later.
func isNoSpace(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT)
}
