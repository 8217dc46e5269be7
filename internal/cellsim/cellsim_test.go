package cellsim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func newQS20(t *testing.T) *Machine {
	t.Helper()
	m, err := NewMachine(QS20())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	if err := QS20().Validate(); err != nil {
		t.Errorf("QS20 invalid: %v", err)
	}
	if err := SingleCell().Validate(); err != nil {
		t.Errorf("SingleCell invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.NumSPEs = 0 },
		func(c *Config) { c.LocalStoreBytes = 0 },
		func(c *Config) { c.CodeBytes = -1 },
		func(c *Config) { c.CodeBytes = c.LocalStoreBytes },
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.MemChannels = 0 },
		func(c *Config) { c.ChannelBandwidth = -1 },
		func(c *Config) { c.DMALatency = -1 },
		func(c *Config) { c.DispatchOverhead = -1 },
	}
	for i, mut := range mutations {
		c := QS20()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestQS20Shape(t *testing.T) {
	m := newQS20(t)
	if len(m.SPEs) != 16 {
		t.Errorf("QS20 has %d SPEs, want 16", len(m.SPEs))
	}
	if cap := m.SPEs[0].LS().Capacity(); cap != 256*1024-48*1024 {
		t.Errorf("data capacity = %d", cap)
	}
	// SPEs stripe across the two chips' channels.
	if m.channelOf(0) != 0 || m.channelOf(7) != 0 || m.channelOf(8) != 1 || m.channelOf(15) != 1 {
		t.Error("SPE→channel striping wrong")
	}
}

func TestLocalStoreAccounting(t *testing.T) {
	m := newQS20(t)
	spe := m.SPEs[0]
	b1, err := Alloc[float32](spe, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if used := spe.LS().Used(); used != 4000 {
		t.Errorf("used = %d, want 4000", used)
	}
	// Capacity enforcement.
	if _, err := Alloc[float32](spe, spe.LS().Capacity(), 4); err == nil {
		t.Error("overflow allocation accepted")
	}
	b1.Free()
	if spe.LS().Used() != 0 {
		t.Errorf("used after free = %d", spe.LS().Used())
	}
	b1.Free() // double free of a nil buffer is a no-op
	if _, err := Alloc[float32](spe, 0, 4); err == nil {
		t.Error("zero-size allocation accepted")
	}
	if _, err := Alloc[float32](spe, 10, 0); err == nil {
		t.Error("zero elem size accepted")
	}
}

func TestLocalStoreAlignment(t *testing.T) {
	m := newQS20(t)
	spe := m.SPEs[0]
	b, _ := Alloc[float32](spe, 1, 4) // 4 bytes → 16-byte quadword
	if spe.LS().Used() != 16 {
		t.Errorf("quadword alignment not applied: used = %d", spe.LS().Used())
	}
	b.Free()
}

func TestDMAFunctionalCopy(t *testing.T) {
	m := newQS20(t)
	spe := m.SPEs[0]
	main := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	buf, _ := Alloc[float32](spe, 8, 4)
	if err := buf.Get(main, 0); err != nil {
		t.Fatal(err)
	}
	spe.WaitTag(0)
	for i, v := range buf.Data {
		if v != main[i] {
			t.Fatalf("get copy wrong at %d", i)
		}
	}
	for i := range buf.Data {
		buf.Data[i] *= 10
	}
	out := make([]float32, 8)
	if err := buf.Put(out, 1); err != nil {
		t.Fatal(err)
	}
	spe.WaitAll()
	if out[7] != 80 {
		t.Errorf("put copy wrong: %v", out)
	}
	if m.Stats.GetCommands != 1 || m.Stats.PutCommands != 1 || m.Stats.GetBytes != 32 || m.Stats.PutBytes != 32 {
		t.Errorf("stats wrong: %+v", m.Stats)
	}
}

func TestDMASizeChecks(t *testing.T) {
	m := newQS20(t)
	buf, _ := Alloc[float32](m.SPEs[0], 4, 4)
	if err := buf.Get(make([]float32, 8), 0); err == nil {
		t.Error("oversized get accepted")
	}
	if err := buf.Put(make([]float32, 8), 0); err == nil {
		t.Error("oversized put accepted")
	}
}

func TestDMATimingUncontended(t *testing.T) {
	cfg := QS20()
	m, _ := NewMachine(cfg)
	spe := m.SPEs[0]
	bytes := 32 * 1024
	spe.GetTimed(bytes, 0)
	spe.WaitTag(0)
	want := float64(bytes)/cfg.ChannelBandwidth + cfg.DMACommandOverhead + cfg.DMALatency
	if math.Abs(spe.Clock-want) > 1e-12 {
		t.Errorf("uncontended 32KB get completed at %g, want %g", spe.Clock, want)
	}
}

func TestDMASmallTransferLatencyBound(t *testing.T) {
	// A 16-byte transfer costs essentially the DMA latency — the effect
	// that makes the original algorithm on one SPE so slow (Table II).
	cfg := QS20()
	m, _ := NewMachine(cfg)
	spe := m.SPEs[0]
	spe.GetTimed(4, 0) // sub-quadword: still a 16-byte granule
	spe.WaitTag(0)
	if spe.Clock < cfg.DMALatency {
		t.Errorf("small transfer faster than DMA latency: %g", spe.Clock)
	}
	if m.Stats.GetBytes != 4 {
		t.Errorf("stats count requested bytes: %d", m.Stats.GetBytes)
	}
}

func TestChannelContention(t *testing.T) {
	// Two SPEs on the same channel moving big blocks at the same virtual
	// time must share bandwidth: combined completion ≈ 2× solo.
	cfg := QS20()
	m, _ := NewMachine(cfg)
	bytes := 1 << 20
	m.SPEs[0].GetTimed(bytes, 0)
	m.SPEs[1].GetTimed(bytes, 0)
	m.SPEs[0].WaitTag(0)
	m.SPEs[1].WaitTag(0)
	solo := float64(bytes)/cfg.ChannelBandwidth + cfg.DMACommandOverhead + cfg.DMALatency
	if m.SPEs[1].Clock < 1.8*float64(bytes)/cfg.ChannelBandwidth {
		t.Errorf("second SPE finished at %g, expected ≈2× solo %g (contention)", m.SPEs[1].Clock, solo)
	}
	// But an SPE on the *other* chip's channel is unaffected.
	m.SPEs[8].GetTimed(bytes, 0)
	m.SPEs[8].WaitTag(0)
	if math.Abs(m.SPEs[8].Clock-solo) > 1e-9 {
		t.Errorf("other-channel SPE saw contention: %g vs solo %g", m.SPEs[8].Clock, solo)
	}
}

func TestChannelOutOfOrderBooking(t *testing.T) {
	// A transfer booked later in wall order but earlier in virtual time
	// must still find the early capacity (the DES executes task bodies
	// atomically, so this ordering is routine).
	cfg := QS20()
	m, _ := NewMachine(cfg)
	m.SPEs[0].Clock = 1.0
	m.SPEs[0].GetTimed(1<<20, 0)
	m.SPEs[0].WaitTag(0)
	late := m.SPEs[0].Clock
	m.SPEs[1].Clock = 0
	m.SPEs[1].GetTimed(1<<20, 0)
	m.SPEs[1].WaitTag(0)
	solo := float64(1<<20)/cfg.ChannelBandwidth + cfg.DMACommandOverhead + cfg.DMALatency
	if math.Abs(m.SPEs[1].Clock-solo) > 1e-9 {
		t.Errorf("early transfer queued behind late one: %g vs %g", m.SPEs[1].Clock, solo)
	}
	if late < 1.0+solo-1e-9 {
		t.Errorf("late transfer too fast: %g", late)
	}
}

func TestWaitTagOnlyWaitsItsGroup(t *testing.T) {
	cfg := QS20()
	m, _ := NewMachine(cfg)
	spe := m.SPEs[0]
	spe.GetTimed(16, 2)    // fast, books first
	spe.GetTimed(1<<24, 1) // slow, still outstanding after WaitTag(2)
	spe.WaitTag(2)
	fast := spe.Clock
	spe.WaitTag(1)
	if spe.Clock <= fast {
		t.Error("tag groups not independent")
	}
}

func TestAdvanceCycles(t *testing.T) {
	m := newQS20(t)
	spe := m.SPEs[0]
	spe.AdvanceCycles(3.2e9)
	if math.Abs(spe.Clock-1.0) > 1e-12 {
		t.Errorf("3.2e9 cycles at 3.2GHz = %g s, want 1", spe.Clock)
	}
}

func TestReset(t *testing.T) {
	m := newQS20(t)
	spe := m.SPEs[0]
	spe.GetTimed(1<<20, 0)
	spe.AdvanceCycles(1e6)
	if _, err := Alloc[float32](spe, 100, 4); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if spe.Clock != 0 || spe.LS().Used() != 0 || m.Stats != (DMAStats{}) {
		t.Error("Reset incomplete")
	}
	// Channel capacity restored: a fresh transfer is uncontended.
	spe.GetTimed(1<<20, 0)
	spe.WaitTag(0)
	want := float64(1<<20)/m.Config.ChannelBandwidth + m.Config.DMACommandOverhead + m.Config.DMALatency
	if math.Abs(spe.Clock-want) > 1e-9 {
		t.Errorf("channel state survived Reset: %g vs %g", spe.Clock, want)
	}
}

func TestFluidChannelConservesBandwidth(t *testing.T) {
	// Property: however transfers are interleaved, the completion of the
	// last byte can never beat total bytes / bandwidth.
	cfg := QS20()
	if err := quick.Check(func(sizes [8]uint16, order [8]uint8) bool {
		m, _ := NewMachine(cfg)
		var total float64
		var last float64
		for i := 0; i < 8; i++ {
			spe := m.SPEs[int(order[i])%8] // all on channel 0
			bytes := 16 * (1 + int(sizes[i])%4096)
			total += float64(bytes)
			spe.GetTimed(bytes, 0)
			spe.WaitTag(0)
			if spe.Clock > last {
				last = spe.Clock
			}
		}
		return last >= total/cfg.ChannelBandwidth
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCheckSPE(t *testing.T) {
	m := newQS20(t)
	if err := m.CheckSPE(15); err != nil {
		t.Error(err)
	}
	if m.CheckSPE(16) == nil || m.CheckSPE(-1) == nil {
		t.Error("invalid SPE index accepted")
	}
	if err := m.CheckSPE(99); err == nil || !strings.Contains(err.Error(), "99") {
		t.Error("error message should name the index")
	}
}

func TestDMAStatsAdd(t *testing.T) {
	a := DMAStats{GetCommands: 1, GetBytes: 2, PutCommands: 3, PutBytes: 4}
	b := DMAStats{GetCommands: 10, GetBytes: 20, PutCommands: 30, PutBytes: 40}
	a.Add(b)
	if a != (DMAStats{11, 22, 33, 44}) {
		t.Errorf("Add wrong: %+v", a)
	}
	if a.TotalBytes() != 66 {
		t.Errorf("TotalBytes = %d", a.TotalBytes())
	}
}

func TestNUMARemoteTransferSlower(t *testing.T) {
	// A transfer homed on the other chip crosses the inter-chip link and
	// must take at least as long as a local one; a big remote stream is
	// bound by the link bandwidth, not the XDR channel.
	cfg := QS20()
	m, _ := NewMachine(cfg)
	bytes := 16 << 20
	m.SPEs[0].GetTimedHomed(bytes, 0, 0) // local (SPE 0 is on chip 0)
	m.SPEs[0].WaitTag(0)
	local := m.SPEs[0].Clock

	m2, _ := NewMachine(cfg)
	m2.SPEs[0].GetTimedHomed(bytes, 0, 1) // remote
	m2.SPEs[0].WaitTag(0)
	remote := m2.SPEs[0].Clock

	if remote <= local {
		t.Errorf("remote transfer (%g s) not slower than local (%g s)", remote, local)
	}
	linkFloor := float64(bytes) / cfg.InterChipBandwidth
	if remote < linkFloor {
		t.Errorf("remote transfer %g s beat the link floor %g s", remote, linkFloor)
	}
}

func TestNUMADisabledOnSingleChip(t *testing.T) {
	cfg := SingleCell()
	m, _ := NewMachine(cfg)
	m.SPEs[0].GetTimedHomed(1<<20, 0, 0)
	m.SPEs[0].WaitTag(0)
	want := float64(1<<20)/cfg.ChannelBandwidth + cfg.DMACommandOverhead + cfg.DMALatency
	if math.Abs(m.SPEs[0].Clock-want) > 1e-9 {
		t.Errorf("single-chip homed transfer = %g, want %g", m.SPEs[0].Clock, want)
	}
}

func TestHomedTransferContendsOnHomeChannel(t *testing.T) {
	// Two SPEs on DIFFERENT chips reading data homed on chip 0 contend on
	// chip 0's channel (plus the link for the remote one).
	cfg := QS20()
	cfg.InterChipBandwidth = 100e9 // effectively unlimited link isolates channel contention
	m, _ := NewMachine(cfg)
	bytes := 4 << 20
	m.SPEs[0].GetTimedHomed(bytes, 0, 0)
	m.SPEs[8].GetTimedHomed(bytes, 0, 0)
	m.SPEs[0].WaitTag(0)
	m.SPEs[8].WaitTag(0)
	serialized := 2 * float64(bytes) / cfg.ChannelBandwidth
	last := math.Max(m.SPEs[0].Clock, m.SPEs[8].Clock)
	if last < serialized {
		t.Errorf("home-channel contention missing: last done %g < serialized floor %g", last, serialized)
	}
}

func TestInterChipValidation(t *testing.T) {
	cfg := QS20()
	cfg.InterChipBandwidth = -1
	if cfg.Validate() == nil {
		t.Error("negative InterChipBandwidth accepted")
	}
}
