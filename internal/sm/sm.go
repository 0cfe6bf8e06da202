// Package sm models one streaming multiprocessor: warp slots with
// scoreboards, dual warp schedulers, a load-store unit with a memory
// coalescer, shared-memory bank conflicts, block barriers, and per-warp
// stall accounting. It drives the functional model in internal/simt and
// the memory timing model in internal/memsys.
package sm

import (
	"fmt"
	"math/bits"

	"cawa/internal/cache"
	"cawa/internal/config"
	"cawa/internal/isa"
	"cawa/internal/memory"
	"cawa/internal/memsys"
	"cawa/internal/sched"
	"cawa/internal/simt"
	"cawa/internal/state"
	"cawa/internal/stats"
)

// CriticalityProvider feeds warp criticality into the scheduler context
// and into L1D requests. The CPL logic of the paper (internal/core)
// implements it; NullCriticality is the criticality-oblivious default.
// Archive walks the provider's dynamic state for checkpoints.
type CriticalityProvider interface {
	state.Archiver
	// OnWarpArrived registers a warp occupying a slot.
	OnWarpArrived(slot int, w *simt.Warp)
	// OnWarpFinished unregisters the slot's warp.
	OnWarpFinished(slot int)
	// OnIssue observes every issued instruction along with the stall
	// cycles since the warp's previous issue (Algorithm 3).
	OnIssue(slot int, st *simt.Step, stallCycles, cycle int64)
	// Criticality returns the slot's criticality estimate.
	Criticality(slot int) float64
	// IsCritical reports whether the slot's warp is currently predicted
	// critical (slower than half its block peers, Section 5.2).
	IsCritical(slot int) bool
}

// NullCriticality is a no-op provider (criticality-oblivious baseline).
type NullCriticality struct{}

// OnWarpArrived implements CriticalityProvider.
func (NullCriticality) OnWarpArrived(int, *simt.Warp) {}

// OnWarpFinished implements CriticalityProvider.
func (NullCriticality) OnWarpFinished(int) {}

// OnIssue implements CriticalityProvider.
func (NullCriticality) OnIssue(int, *simt.Step, int64, int64) {}

// Criticality implements CriticalityProvider.
func (NullCriticality) Criticality(int) float64 { return 0 }

// IsCritical implements CriticalityProvider.
func (NullCriticality) IsCritical(int) bool { return false }

type wbEvent struct {
	time int64
	reg  isa.Reg
}

// stallReason classifies why a warp could not issue (statistics).
type stallReason uint8

const (
	reasonNone stallReason = iota
	reasonBarrier
	reasonMemData   // operand blocked on an outstanding load
	reasonMemStruct // LSU or MSHR structural hazard
	reasonALU       // operand blocked on an in-flight compute result
	reasonReady     // issuable (a non-issue then means scheduler delay)
)

// slot holds one resident warp and its pipeline state. The fields a tick
// reads while it evaluates, accounts and wakes come first, so they share
// a cache line; the bulky per-warp tables follow.
type slot struct {
	valid bool
	// done, pc and atBarrier mirror warp.Done(), warp.PC() and
	// warp.AtBarrier, which change only at an issue or a barrier release:
	// readiness then reads no *simt.Warp.
	done      bool
	atBarrier bool
	// parked: the warp failed an operand check and sits outside the
	// candidate set until an event that can lift the check wakes it;
	// reason then holds the verdict a re-evaluation would reach
	// (readiness.go).
	parked bool
	reason stallReason // last readiness classification
	pc     int32

	busyALU uint64 // registers awaiting compute writeback
	busyMem uint64 // registers awaiting load data

	// since >= 0: the warp's stall cycles from cycle since onward are
	// owed to reason's bucket and not yet credited to rec. notAccruing:
	// rec is current, the warp is charged tick by tick.
	since       int64
	readyCycle  int64 // cycle readiness last evaluated true
	issuedCycle int64 // cycle of the last issue
	wbMin       int64 // earliest time in wb (meaningless while wb is empty)

	lastIssue    int64 // cycle of the previous issue (or dispatch)
	icSet, icWay int32 // L1I set and way of the last fetch hit (issueFrom)

	warp  *simt.Warp
	block *blockState
	gen   int64 // incremented per occupancy; guards stale load tokens
	age   int64 // dispatch sequence, for GTO/age tie-breaks
	wb    []wbEvent
	rec   stats.WarpRecord

	// Memoized memory-coalescing peek: valid while the warp has not
	// issued since it was computed (registers cannot change underneath).
	// rejectedAt rides on it: when the L1D last refused the peeked lines,
	// its fill count then plus the refusal's deficit (0: not refused).
	// The refusal stands while L1D.Fills() is below it, so an MSHR-blocked
	// warp retries for one compare, not one probe per line.
	peekPC     int32
	peekInstr  int64
	peekBuf    []int64
	rejectedAt uint64

	// loadRem counts, per destination register, the line fills still
	// outstanding for the load that set the register's busyMem bit. The
	// scoreboard guarantees at most one in-flight load per register.
	loadRem [isa.NumRegs]int32
}

type blockState struct {
	id        int // grid-wide block id
	shared    []int64
	ctx       simt.ExecContext
	live      int // resident warps not yet finished
	atBarrier int
	slots     []int
}

// Load tokens identify an in-flight load without any allocation: the
// destination register, owning slot, and the slot's occupancy
// generation (guarding stale fills) are packed into one int64.
const (
	tokenRegBits  = 6 // isa.NumRegs == 64
	tokenSlotBits = 8 // 1<<tokenSlotBits == config.MaxSlots (TestTokenHoldsEverySlot)
	tokenGenShift = tokenRegBits + tokenSlotBits
)

func makeToken(slot int, gen int64, reg isa.Reg) int64 {
	return gen<<tokenGenShift | int64(slot)<<tokenRegBits | int64(reg)
}

func splitToken(t int64) (slot int, gen int64, reg isa.Reg) {
	return int(t>>tokenRegBits) & (1<<tokenSlotBits - 1),
		t >> tokenGenShift,
		isa.Reg(t & (1<<tokenRegBits - 1))
}

type schedUnit struct {
	policy sched.Policy
	owned  slotSet // the slots this scheduler issues from (i % units), fixed
	ready  []int   // scratch: the offered list minus rejected picks
	ctx    sched.Context
	issued int64 // instructions this unit has issued (pick distribution)
	list   []int // the ready list of the unit's last pass (issueFrom)
	// While the SM sleeps (sleep.go) the rest records the unit's
	// foreseen refused ticks, k = 0 the real tick before the sleep: the
	// policy state after tick k in snap from snapAt[k], the picks of
	// tick k in pickLog[tickAt[k]:tickAt[k+1]]. The state after tick
	// loop+period is the one after tick loop, and the ticks from there
	// repeat for ever.
	snap         *state.Archive
	snapAt       []int
	pickLog      []int32
	tickAt       []int
	loop, period int64
}

// SM is one streaming multiprocessor.
type SM struct {
	ID  int
	cfg config.Config

	mem      *memory.Memory
	storeLog *memory.StoreLog // non-nil only while a span-engine launch runs
	l1d      *memsys.L1D
	l1i      *cache.Cache // instruction cache (tag state only)
	icBusy   int64        // cycle until which an I-miss blocks fetch
	crit     CriticalityProvider
	units    []schedUnit
	slots    []slot
	kernel   *simt.Kernel
	prog     *isa.Program
	meta     []isa.InstrMeta // prog's predecoded issue metadata (SetKernel)

	// classLat maps a functional-unit class to its writeback latency,
	// precomputed from the configuration (indexed by isa.Class).
	classLat [isa.ClassCtrl + 1]int64

	// Sets maintained at the events that change them (readiness.go);
	// all derived from the slots, none serialized.
	live      slotSet // valid and not finished
	cand      slotSet // the unparked: fresh ∪ open ∪ lsuWait ∪ fetchWait
	fresh     slotSet // candidates readiness runs on at their unit's next turn
	open      slotSet // candidates that passed every check (ready)
	gated     slotSet // of open, those whose next instruction needs the LSU
	lsuWait   slotSet // candidates waiting on the LSU alone
	fetchWait slotSet // candidates waiting on an I-miss's fill
	wbPending slotSet // non-empty writeback queue
	freeSlots int     // slots not valid
	events    uint64  // verdict-changing events (readiness.go)

	// Sleeping through refused ticks (sleep.go). None of it is
	// serialized: a saver settles the debt first, a loader wakes.
	sleeps      bool           // Cycle may sleep: a span-engine launch runs (SetStoreLog)
	asleep      bool           // the ticks since sleepAt are refused ticks
	sleepAt     int64          // the real tick the SM fell asleep after
	sleepless   uint64         // events at the last failed fallAsleep
	sleepEvents uint64         // events at sleepAt
	sleepFills  uint64         // L1D.Fills() when the refusals last held
	slept       int64          // ticks since sleepAt settled
	owed        int64          // ticks since sleepAt + slept not yet settled
	probed      slotSet        // the foreseen picks, each holding a refusal (refuses)
	touchSeq    []cache.Ref    // their L1I hits in one tick's order
	picks       []int64        // per slot: refused picks in the ticks a settle covers
	loader      *state.Archive // restores a policy to a foreseen state
	settled     int64          // refused ticks settled in bulk (SettledTicks)
	settleSlack int64          // test hook: settle this many owed ticks short

	cycle        int64
	lsuBusyUntil int64
	wbNext       int64 // earliest pending writeback time (NoWake if none)
	ageSeq       int64
	lineBuf      []int64   // scratch for memory-coalescing peeks
	step         simt.Step // scratch for ExecInto (reused every issue)

	residentBlocks int
	sharedInUse    int
	regsInUse      int
	freeBlocks     []*blockState // retired blocks, recycled by DispatchBlock

	// Finished accumulates warp records; the GPU drains it.
	Finished []stats.WarpRecord

	// BlockStatsBase offsets grid-local block ids in warp records so
	// blocks stay unique across kernel launches (set by the GPU).
	BlockStatsBase int

	// Counters.
	Instructions int64
	ThreadInstrs int64
	MemInstrs    int64 // global-memory instructions issued
	MemTxns      int64 // coalesced line transactions generated

	// OnBlockDone, when set, is invoked when a block retires.
	OnBlockDone func(blockID int, cycle int64)
}

// Options configures SM construction.
type Options struct {
	ID            int
	Config        config.Config
	Memory        *memory.Memory
	MemSys        *memsys.System
	PolicyFactory sched.Factory
	L1Policy      cache.Policy
	Criticality   CriticalityProvider
}

// New builds an SM, creating its L1D in the shared memory system.
func New(opt Options) *SM {
	if opt.PolicyFactory == nil {
		opt.PolicyFactory = func() sched.Policy { return sched.NewLRR() }
	}
	if opt.L1Policy == nil {
		opt.L1Policy = cache.LRU{}
	}
	if opt.Criticality == nil {
		opt.Criticality = NullCriticality{}
	}
	m := &SM{
		ID:     opt.ID,
		cfg:    opt.Config,
		mem:    opt.Memory,
		crit:   opt.Criticality,
		slots:  make([]slot, opt.Config.MaxWarpsPerSM),
		wbNext: NoWake,
	}
	m.live = newSlotSet(len(m.slots))
	m.cand = newSlotSet(len(m.slots))
	m.fresh = newSlotSet(len(m.slots))
	m.open = newSlotSet(len(m.slots))
	m.gated = newSlotSet(len(m.slots))
	m.lsuWait = newSlotSet(len(m.slots))
	m.fetchWait = newSlotSet(len(m.slots))
	m.wbPending = newSlotSet(len(m.slots))
	m.freeSlots = len(m.slots)
	m.sleepless = ^uint64(0)
	for c := range m.classLat {
		switch isa.Class(c) {
		case isa.ClassFPU:
			m.classLat[c] = int64(opt.Config.FPULatency)
		case isa.ClassSFU:
			m.classLat[c] = int64(opt.Config.SFULatency)
		default:
			m.classLat[c] = int64(opt.Config.ALULatency)
		}
	}
	m.l1d = opt.MemSys.NewL1D(opt.L1Policy, m.handleFill)
	m.l1i = cache.New(opt.Config.L1I, cache.LRU{})
	m.units = make([]schedUnit, opt.Config.SchedulersPerSM)
	for i := range m.units {
		m.units[i].policy = opt.PolicyFactory()
		m.units[i].ctx = sched.Context{
			Age:         func(s int) int64 { return m.slots[s].age },
			Criticality: func(s int) float64 { return m.crit.Criticality(s) },
			WaitingMem: func(s int) bool {
				r := m.slots[s].reason
				return r == reasonMemData || r == reasonMemStruct || r == reasonBarrier
			},
		}
	}
	for i := range m.units {
		m.units[i].owned = newSlotSet(len(m.slots))
		m.units[i].ready = make([]int, 0, (len(m.slots)+len(m.units)-1)/len(m.units))
		m.units[i].list = make([]int, 0, cap(m.units[i].ready))
	}
	for s := range m.slots {
		m.units[s%len(m.units)].owned.add(s)
	}
	return m
}

// L1D exposes the SM's data cache.
func (m *SM) L1D() *memsys.L1D { return m.l1d }

// SetStoreLog installs (nil: removes) the deferred store log that
// blocks dispatched from now on execute global-memory traffic against.
// The span engine (internal/gpu) gives each SM a private log for the
// length of a launch and flushes them in cycle → SM-id order after
// every span; without one, warps write global memory directly.
//
// Resident blocks (possible only after a checkpoint restore — normal
// launches install the log before any dispatch) are rebound to the log
// of the launch that resumes them.
//
// Only an SM with a log sleeps through refused ticks (Cycle): the span
// engine's. The ticked reference loop installs none, so its SMs tick
// every cycle for real and the engine-equivalence tests compare settled
// runs against ticked ones.
func (m *SM) SetStoreLog(l *memory.StoreLog) {
	m.wakeUp()
	m.sleeps = l != nil
	m.storeLog = l
	for i := range m.slots {
		if m.slots[i].valid {
			m.slots[i].block.ctx.Log = l
		}
	}
}

// L1I exposes the SM's instruction cache (statistics), settled.
func (m *SM) L1I() *cache.Cache {
	m.settle()
	return m.l1i
}

// instrBytes approximates the encoded size of one instruction in the
// instruction stream, for L1I footprint modeling (PTX-era encodings are
// 8 bytes).
const instrBytes = 8

// fetch models the instruction cache: a hit is free (fetch is ahead of
// issue); a miss blocks the warp and occupies the fetch path while the
// line streams in from the (always-hitting) L2.
func (m *SM) fetch(s *slot, now int64) bool {
	if m.icBusy > now {
		return false
	}
	req := cache.Request{Addr: int64(s.pc) * instrBytes}
	if set, way, hit := m.l1i.Probe(req.Addr); hit {
		m.l1i.TouchLRU(set, way)
		s.icSet, s.icWay = int32(set), int32(way)
		return true
	}
	m.l1i.Access(req) // counts the miss
	m.l1i.Fill(req)
	m.icBusy = now + int64(m.cfg.L2Latency)/4
	m.open.moveTo(m.fresh) // the fill may have evicted an open warp's line
	m.events++
	return false
}

// Crit exposes the criticality provider (sampling for Figure 12).
func (m *SM) Crit() CriticalityProvider { return m.crit }

// Policies returns the scheduler policies (tests).
func (m *SM) Policies() []sched.Policy {
	m.settle()
	out := make([]sched.Policy, len(m.units))
	for i := range m.units {
		out[i] = m.units[i].policy
	}
	return out
}

// SetKernel installs the kernel to execute. Any resident blocks must
// have retired.
func (m *SM) SetKernel(k *simt.Kernel) {
	if m.residentBlocks != 0 {
		panic(fmt.Sprintf("sm %d: SetKernel with %d resident blocks", m.ID, m.residentBlocks))
	}
	m.kernel = k
	m.prog = k.Program
	m.meta = k.Program.Meta()
	// No warp can hold a standing verdict here: a warp finishes at an
	// issue, which makes it fresh, so every candidate left is fresh.
	m.events++
}

// Now returns the last cycle the SM ticked or skipped through.
func (m *SM) Now() int64 { return m.cycle }

// Idle reports whether no warps are resident.
func (m *SM) Idle() bool { return m.residentBlocks == 0 }

// ResidentWarps returns the number of occupied warp slots (tests,
// occupancy statistics).
func (m *SM) ResidentWarps() int { return len(m.slots) - m.freeSlots }

// ObsState is a point-in-time classification of the SM's warp
// population for the observability sampler: how many warps are
// resident, what each was doing at the sampled cycle, and the live
// criticality spread (max-min provider estimate) across unfinished
// warps. Gathering it is allocation-free.
type ObsState struct {
	Resident     int     // occupied warp slots
	Issued       int     // issued an instruction at the sampled cycle
	Ready        int     // issuable but not picked (scheduler delay)
	StallMem     int     // blocked on global memory (data or structural)
	StallALU     int     // blocked on an in-flight compute result
	StallBarrier int     // parked at a block barrier
	Idle         int     // finished, holding the slot until block exit
	CritSpread   float64 // max-min criticality across unfinished warps
}

// Active returns the warps making or awaiting progress (not yet
// finished).
func (o ObsState) Active() int {
	return o.Issued + o.Ready + o.StallMem + o.StallALU + o.StallBarrier
}

// Stalled returns the warps blocked on memory, compute results, or
// barriers.
func (o ObsState) Stalled() int { return o.StallMem + o.StallALU + o.StallBarrier }

// ObsState classifies every resident warp by its latest readiness
// evaluation (sampling hook; see internal/obs). A parked warp's latest
// evaluation is the one that parked it — still the verdict of the
// sampled cycle, or the warp would have been woken — so the sampler
// needs no park debt settled: it reads classifications, not the stall
// buckets that accrue lazily. A sleeping SM's refused ticks are settled
// first, for the classifications of the last one.
func (m *SM) ObsState() ObsState {
	m.settle()
	var o ObsState
	var minC, maxC float64
	first := true
	o.Resident = m.ResidentWarps()
	for w, word := range m.live {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			s := &m.slots[i]
			switch {
			case s.issuedCycle == m.cycle:
				o.Issued++
			case s.reason == reasonReady:
				o.Ready++
			case s.reason == reasonMemData || s.reason == reasonMemStruct:
				o.StallMem++
			case s.reason == reasonALU:
				o.StallALU++
			case s.reason == reasonBarrier:
				o.StallBarrier++
			default:
				o.Ready++ // not yet evaluated this cycle
			}
			c := m.crit.Criticality(i)
			if first || c < minC {
				minC = c
			}
			if first || c > maxC {
				maxC = c
			}
			first = false
		}
	}
	// Finished warps hold their slot until the block exits.
	o.Idle = o.Resident - o.Active()
	if !first {
		o.CritSpread = maxC - minC
	}
	return o
}

// Schedulers returns the number of scheduler units (sampling hook).
func (m *SM) Schedulers() int { return len(m.units) }

// SchedulerIssued returns the cumulative instructions issued by one
// scheduler unit — the scheduler-pick distribution (sampling hook).
func (m *SM) SchedulerIssued(unit int) int64 { return m.units[unit].issued }
