// The simulated-multicore execution engine.
//
// Each simulated core runs one fiber (its own stack; see "Context switching"
// below). A discrete-event scheduler always runs the fiber with the smallest
// simulated clock; a fiber keeps running until its clock passes the
// next-smallest runnable clock, at which point it hands the CPU to that
// fiber. This realizes a globally consistent interleaving at
// instrumented-access granularity, deterministically, on a single OS thread.
//
// Simulated time advances only through charge(): every instrumented memory
// access, atomic, allocation and explicit compute charge moves the current
// fiber's clock by the cost model's cycles. Throughput for an experiment is
// completed-ops / max core clock.
//
// Scheduling structures: runnable fibers sit in a binary min-heap ordered by
// (clock, spawn index); the running fiber is kept out of the heap, and the
// heap top's clock is the yield threshold. Ties break toward the lower spawn
// index, matching the linear-scan scheduler this replaced bit for bit.
//
// Direct handoff (deterministic policy): a fiber that crosses the threshold
// swaps itself into the heap top with one replace-top sift, takes the new
// top's clock as the next threshold, and switches straight to the fiber it
// displaced — one stack switch per yield, no trip through a scheduler stack.
// The run loop only starts the first fiber and takes control back when a
// fiber finishes. The exploration policies (schedule.hpp) keep a decision
// loop on the scheduler stack: every yield bounces through it.
//
// Context switching has two primitives under that one algorithm:
//   - x86-64 without ASan/TSan: a register-only switch (engine.cpp) that
//     saves rbx, rbp, r12-r15, rsp, MXCSR and the x87 control word, and a
//     hand-built first frame for each fiber. No syscalls, no signal mask.
//     A CET shadow stack is not supported on this path (the switch returns
//     into another stack's frame).
//   - sanitizer builds and other targets: swapcontext, bracketed under ASan
//     by __sanitizer_start/finish_switch_fiber so fake stacks and shadow
//     poisoning follow the fiber. TSan intercepts swapcontext itself.
//
// INVARIANT (exception safety across fibers): all fibers share one OS thread
// and therefore one __cxa_eh_globals. Code running inside a fiber must never
// reach a scheduling point (charge()/mem_access()/spin_wait()) while a C++
// exception is in flight or while executing a catch clause whose exception
// is still alive — interleaved catch lifetimes across fibers corrupt the
// shared caught-exception stack. Catch TxAbortException, copy its 3-byte
// result, leave the handler, then do any charged work.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/contention.hpp"
#include "obs/event.hpp"
#include "obs/ring.hpp"
#include "sim/arena.hpp"
#include "sim/htm.hpp"
#include "sim/machine.hpp"
#include "sim/memmodel.hpp"
#include "sim/schedule.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

// ASan and TSan cannot follow a hand-rolled stack switch, so sanitizer
// builds (and non-x86-64 targets) switch with swapcontext instead.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define EUNO_SIM_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define EUNO_SIM_SANITIZED 1
#endif
#endif
#if defined(__x86_64__) && !defined(EUNO_SIM_SANITIZED)
#define EUNO_SIM_ASM_SWITCH 1
#else
#include <ucontext.h>
#endif

namespace euno::sim {

/// One recorded simulation event (aborts, fallbacks, tx/op boundaries, run
/// slices, ...). Cheap and fixed-size; recording is off unless
/// enable_trace() was called. The canonical type lives in obs/event.hpp.
using TraceEvent = obs::TraceEvent;

/// Per-core cost/usage counters (simulated).
struct CoreCounters {
  std::uint64_t instructions = 0;   // instrumented ops + explicit compute
  std::uint64_t mem_accesses = 0;
  std::uint64_t cycles_in_tx = 0;      // cycles spent inside transactions
  std::uint64_t cycles_wasted = 0;     // cycles of aborted transaction attempts
  std::uint64_t cycles_spinning = 0;   // cycles in spin-wait loops
};

class Simulation {
 public:
  explicit Simulation(MachineConfig cfg = MachineConfig{});
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Register a fiber pinned to simulated core `core`. The body runs inside
  /// the simulation; it receives the core id. Must be called before run().
  void spawn(int core, std::function<void(int)> body);

  /// Run until every spawned fiber finishes.
  void run();

  // ---- facilities callable from inside fiber bodies ----

  /// Advance the current fiber's clock; may transfer control to another
  /// fiber (and return later). Header-inline: the common case is "add and
  /// keep running"; only crossing the yield threshold switches fibers.
  void charge(std::uint64_t cycles) {
    Fiber* f = current_;
    if (f == nullptr) return;  // setup/teardown outside the simulation is free
    f->clock += cycles;
    if (f->clock > yield_threshold_) [[unlikely]] yield_to_scheduler();
  }

  /// Full memory-access protocol: doom check, HTM conflict handling &
  /// set tracking, coherence cost. The caller performs the raw load/store
  /// immediately after this returns (no scheduling point intervenes).
  /// Throws TxAbortException on aborts. `extra_cycles` folds additional
  /// cost (e.g. an RMW's) into the single pre-access charge.
  void mem_access(void* addr, std::size_t size, bool is_write,
                  std::uint32_t extra_cycles = 0) {
    // Outside any fiber (single-threaded setup/verification) accesses are
    // uninstrumented: there are no in-flight transactions and no clock.
    Fiber* f = current_;
    if (f == nullptr) return;
    // Global real-time axis: one tick per instrumented access. History
    // recording (src/check) stamps operation invoke/response with this
    // counter, which stays a valid execution order under every schedule
    // policy (per-core clocks only order execution under the deterministic
    // policy).
    ++step_;
    const int core = f->core;
    htm_->check_doomed(core);

    // Charge first: charge() is the engine's only scheduling point, and it
    // must happen *before* the conflict protocol so that the protocol, the
    // coherence update and the caller's raw load/store form one indivisible
    // step in the global interleaving. (Running the protocol before a yield
    // opens two races: our own transaction can be doomed while suspended and
    // then leak a zombie write, or another core can start a transaction on
    // this line and we would miss the conflict.) The cost is estimated from
    // the pre-access coherence state.
    LineState& line = arena_->line_of(addr);
    auto& c = counters_[core];
    c.instructions += 1;
    c.mem_accesses += 1;
    f->clock += cfg_.costs.instr +
                peek_cost(line, core, is_write, cfg_, f->clock) + extra_cycles;
    if (f->clock > yield_threshold_) [[unlikely]] yield_to_scheduler();

    // Post-yield: raise any abort delivered while suspended, then run the
    // conflict protocol and coherence transition. The caller's raw access
    // follows immediately with no intervening scheduling point.
    htm_->check_doomed(core);
    htm_->on_access(core, addr, size, is_write);
    apply_access(line, core, is_write, f->clock);
  }

  /// A scheduling point with spin cost (used by simulated spin loops).
  void spin_wait();

  /// Explicit compute work (`n` abstract instructions at 1 cycle each).
  void compute(std::uint64_t n);

  int current_core() const;
  bool in_fiber() const { return current_ != nullptr; }

  std::uint64_t clock_of(int core) const {
    const auto i = static_cast<std::size_t>(core);
    return i < core_fiber_.size() && core_fiber_[i] != nullptr
               ? core_fiber_[i]->clock
               : 0;
  }
  std::uint64_t max_clock() const;
  CoreCounters& counters(int core) { return counters_[core]; }

  SharedArena& arena() { return *arena_; }
  SimHTM& htm() { return *htm_; }
  const MachineConfig& config() const { return cfg_; }

  /// Injected-fault counters of the run so far (sim/fault.hpp; all zero
  /// unless MachineConfig::fault armed a campaign).
  const FaultCounters& fault_counters() const { return htm_->fault_counters(); }

  /// Event tracing (timeline analyses, --trace export; off by default).
  /// Events land in per-core rings (compact varint/delta encoding; see
  /// obs/ring.hpp) so recording never interleaves cores; trace_events()
  /// decodes and merges them back into one clock-ordered stream.
  void enable_trace();
  bool trace_enabled() const { return trace_on_; }
  void record_trace(std::uint8_t code, std::uint8_t a, std::uint8_t b) {
    // active_ring_ is non-null exactly while a fiber runs with tracing on
    // (the run loops cache &trace_buf_[core] around each resume), so the
    // disabled-tracing hot path is a single pointer test.
    if (active_ring_ != nullptr) [[unlikely]] {
      active_ring_->append(current_->clock, code, a, b);
    }
  }
  /// All recorded events merged across cores, ordered by clock (stable: a
  /// core's own events keep their recording order, equal clocks keep core
  /// order — bit-identical to the concat+stable_sort this replaced).
  /// Decodes eagerly; for the cheap hand-off used by experiments, see
  /// take_trace().
  std::vector<TraceEvent> trace_events() const;

  /// Move the recorded trace out of the engine, still encoded (no decode or
  /// merge — a pointer move; the caller decodes lazily via
  /// obs::TraceStream::merged()). The engine's buffers reset to empty.
  obs::TraceStream take_trace();

  /// Contention attribution (off by default): conflict aborts recorded into
  /// `map`, node annotations from the trees into `reg`. Both are caller-owned
  /// and must outlive run(). Pass nullptrs to disable again.
  void enable_contention(obs::ContentionMap* map, obs::NodeRegistry* reg);
  obs::NodeRegistry* node_registry() { return node_registry_; }

  // ---- schedule exploration (src/sim/schedule.hpp, src/check) ----

  /// Install a schedule policy. Must be called before run(). The default
  /// policy keeps the direct-handoff heap scheduler; anything else routes
  /// run() through the generic decision loop.
  void set_schedule_policy(SchedulePolicy p);
  const SchedulePolicy& schedule_policy() const { return sched_.policy; }

  /// Monotone count of instrumented accesses — the global real-time axis of
  /// the run under any schedule policy. Reading it never advances simulated
  /// time (history recording is free in simulated cycles).
  std::uint64_t global_step() const { return step_; }

  /// Branch points recorded by the last run() in systematic mode, in
  /// decision order (empty in other modes).
  const std::vector<ScheduleDecision>& schedule_decisions() const {
    return sched_.decisions;
  }
  /// True when the last run() hit SchedulePolicy::max_steps and fell back to
  /// the deterministic policy to terminate.
  bool schedule_truncated() const { return sched_.truncated; }

  /// Called by SimCtx::txn right after a transaction begins: applies the
  /// adversarial hooks (preempt-on-tx-begin yields; an abort storm throws
  /// TxAbortException via the explicit-abort path). Inline no-op unless a
  /// hook is armed, so the production txn path is untouched.
  void sched_tx_begin(int core) {
    if (sched_.hooks_armed) [[unlikely]] sched_tx_begin_slow(core);
  }

  /// Fiber resumes so far, first entries included: one per run slice (one
  /// kRunBegin trace event each). A host-cost counter — no simulated
  /// quantity depends on it.
  std::uint64_t switches() const { return switches_; }

  /// Internal: fiber entry point (first frame of every fiber stack).
  void fiber_main(std::uint32_t index);

 private:
  /// A suspended execution context: the saved stack pointer (the registers
  /// sit on the stack below it) or, on the swapcontext path, a ucontext.
  struct SwitchContext {
#if defined(EUNO_SIM_ASM_SWITCH)
    void* sp = nullptr;
#else
    ucontext_t uc{};
#endif
  };

  struct Fiber {
    SwitchContext ctx;
    void* stack = nullptr;
    std::size_t stack_bytes = 0;
    std::function<void(int)> body;
    void* fake_stack = nullptr;  // ASan fake-stack handle while suspended
    int core = -1;
    std::uint32_t index = 0;  // spawn index (heap tie-break)
    std::uint64_t clock = 0;
    bool done = false;
  };

  /// Min-heap entry: runnable fiber `index` at simulated time `clock`.
  struct RunnableEntry {
    std::uint64_t clock;
    std::uint32_t index;
    bool operator>(const RunnableEntry& o) const {
      return clock != o.clock ? clock > o.clock : index > o.index;
    }
  };

  /// Suspend the running context into `from` and resume `to`. `from_fake`
  /// is the suspending side's ASan fake-stack slot (nullptr: it never
  /// resumes); `to_bottom`/`to_size` bound the destination stack. Returns
  /// when something switches back to `from`.
  static void switch_stacks(SwitchContext& from, void** from_fake,
                            SwitchContext& to, const void* to_bottom,
                            std::size_t to_size);
  void yield_to_scheduler();
  /// Run `f` from the scheduler stack until control comes back to it: when
  /// `f` yields (exploration policies) or, under the handoff, when whichever
  /// fiber is running finishes.
  void resume(Fiber& f);
  void begin_slice(Fiber& f);
  void end_slice(Fiber& f);
  void run_deterministic_loop();
  void run_scheduled_loop();
  /// Pick the next fiber among `runnable` (sorted by fiber index) under the
  /// installed policy. `last` is the fiber index that just yielded (~0u at
  /// the start of the run); `choice_cursor` advances through
  /// policy.choices in systematic mode.
  std::size_t pick_runnable(const std::vector<std::uint32_t>& runnable,
                            std::uint32_t last, std::size_t& choice_cursor);
  std::size_t min_clock_pos(const std::vector<std::uint32_t>& runnable) const;
  void sched_tx_begin_slow(int core);

  MachineConfig cfg_;
  std::unique_ptr<SharedArena> arena_;
  std::unique_ptr<SimHTM> htm_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<CoreCounters> counters_;
  std::vector<RunnableEntry> runnable_;  // min-heap; excludes current_
  SwitchContext sched_ctx_;  // the run loop, while a fiber runs
  // ASan fiber bookkeeping: the scheduler stack's fake-stack handle while a
  // fiber runs, and its bounds (learned at the run's first fiber entry) so
  // fibers can annotate the switch back. Unused outside ASan builds.
  void* sched_fake_stack_ = nullptr;
  const void* sched_stack_bottom_ = nullptr;
  std::size_t sched_stack_size_ = 0;
  Fiber* current_ = nullptr;
  std::uint64_t yield_threshold_ = ~0ull;
  std::uint64_t switches_ = 0;  // see switches()
  bool running_ = false;
  bool direct_handoff_ = false;  // deterministic policy: fiber-to-fiber yields
  bool trace_on_ = false;
  std::vector<obs::EventRing> trace_buf_;  // per core; see enable_trace
  obs::EventRing* active_ring_ = nullptr;  // == &trace_buf_[current core] or null
  // core -> fiber lookup (indexed by core id; fibers_ owns stable pointers),
  // so clock_of() is O(1) — it sits on the latency channel's per-op path.
  std::vector<Fiber*> core_fiber_;
  obs::NodeRegistry* node_registry_ = nullptr;
  std::uint64_t step_ = 0;  // instrumented accesses; see global_step()

  /// Schedule-exploration state (cold: touched only by non-default policies
  /// and the sched_tx_begin slow path).
  struct SchedState {
    SchedulePolicy policy{};
    bool hooks_armed = false;   // preempt_on_tx_begin || abort_storm_pct
    bool force_switch = false;  // next decision must leave the current fiber
    bool truncated = false;
    std::uint64_t run_start_step = 0;
    Xoshiro256 rng{1};
    std::vector<ScheduleDecision> decisions;
  };
  SchedState sched_;
};

/// The simulation owning the currently-executing fiber, if any (fiber-local
/// accessor used by SimCtx helpers). thread_local, so concurrently running
/// simulations on different OS threads (the parallel sweep runner) never see
/// each other.
Simulation*& current_simulation();

}  // namespace euno::sim
