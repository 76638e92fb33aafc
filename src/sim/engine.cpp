#include "sim/engine.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

// Under ASan every stack switch must be bracketed with
// __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber so the
// fake-stack machinery and shadow poisoning follow the fiber, not the OS
// thread. engine.hpp already selects swapcontext for sanitizer builds.
#if defined(__SANITIZE_ADDRESS__)
#define EUNO_SIM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EUNO_SIM_ASAN_FIBERS 1
#endif
#endif
#if defined(EUNO_SIM_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#define EUNO_ASAN_START_SWITCH(save, bottom, size) \
  __sanitizer_start_switch_fiber((save), (bottom), (size))
#define EUNO_ASAN_FINISH_SWITCH(fake, bottom, size) \
  __sanitizer_finish_switch_fiber((fake), (bottom), (size))
#else
#define EUNO_ASAN_START_SWITCH(save, bottom, size) ((void)0)
#define EUNO_ASAN_FINISH_SWITCH(fake, bottom, size) ((void)0)
#endif

#if defined(EUNO_SIM_ASM_SWITCH)
// euno_sim_switch(save_sp, load_sp): push the SysV callee-saved registers,
// MXCSR and the x87 control word onto the running stack, store rsp into
// *save_sp, load load_sp, pop the same state from the other stack and return
// into it. Caller-saved registers need no saving: the compiler treats the
// call as an ordinary call that clobbers them.
//
// euno_sim_fiber_entry is where a fresh fiber's first frame returns to
// (Simulation::spawn builds that frame): it calls r14(r12, r13) and never
// returns. Its CFI marks the bottom of the fiber stack for unwinders.
extern "C" {
__attribute__((visibility("hidden"))) void euno_sim_switch(void** save_sp,
                                                           void* load_sp);
}
asm(R"(
  .pushsection .text
  .p2align 4
  .globl euno_sim_switch
  .hidden euno_sim_switch
  .type euno_sim_switch, @function
euno_sim_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size euno_sim_switch, .-euno_sim_switch

  .p2align 4
  .globl euno_sim_fiber_entry
  .hidden euno_sim_fiber_entry
  .type euno_sim_fiber_entry, @function
euno_sim_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  movq %r13, %rsi
  callq *%r14
  ud2
  .cfi_endproc
  .size euno_sim_fiber_entry, .-euno_sim_fiber_entry
  .popsection
)");
extern "C" {
__attribute__((visibility("hidden"))) void euno_sim_fiber_entry();
}
#endif

namespace euno::sim {

namespace {
constexpr std::size_t kStackBytes = 256 * 1024;
constexpr std::size_t kGuardBytes = 4096;

// Fiber stacks (mmap + guard page) are recycled through a per-OS-thread pool
// so a sweep of hundreds of experiments doesn't pay hundreds of mmap/mprotect/
// munmap rounds per Simulation. Per-thread keeps the pool lock-free under the
// parallel sweep runner; the pool holds base (pre-guard) pointers and unmaps
// everything at thread exit.
struct StackPool {
  std::vector<void*> bases;

  ~StackPool() {
    for (void* base : bases) ::munmap(base, kStackBytes + kGuardBytes);
  }

  void* acquire() {
    if (!bases.empty()) {
      void* base = bases.back();
      bases.pop_back();
      return base;
    }
    void* base = ::mmap(nullptr, kStackBytes + kGuardBytes,
                        PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                        0);
    EUNO_ASSERT_MSG(base != MAP_FAILED, "fiber stack mmap failed");
    // Guard page at the low end catches stack overflow.
    ::mprotect(base, kGuardBytes, PROT_NONE);
    return base;
  }

  void release(void* base) {
    // Cap the pool: a 20-fiber experiment keeps ~5 MB parked, which is the
    // steady state of any sweep; anything beyond is returned to the OS.
    constexpr std::size_t kMaxPooled = 64;
    if (bases.size() < kMaxPooled) {
      bases.push_back(base);
    } else {
      ::munmap(base, kStackBytes + kGuardBytes);
    }
  }
};

StackPool& stack_pool() {
  static thread_local StackPool pool;
  return pool;
}

#if defined(EUNO_SIM_ASM_SWITCH)
void fiber_entry(Simulation* simulation, std::uint64_t index) {
  simulation->fiber_main(static_cast<std::uint32_t>(index));
}
#else
// makecontext only passes ints; stash the simulation + fiber index through
// a pair of 32-bit halves of `this`.
void fiber_entry(unsigned hi, unsigned lo, unsigned index) {
  auto bits = (static_cast<std::uint64_t>(hi) << 32) | lo;
  auto* simulation = reinterpret_cast<Simulation*>(bits);
  simulation->fiber_main(index);
}
#endif
}  // namespace

Simulation*& current_simulation() {
  static thread_local Simulation* sim = nullptr;
  return sim;
}

inline void Simulation::switch_stacks(SwitchContext& from,
                                      [[maybe_unused]] void** from_fake,
                                      SwitchContext& to,
                                      [[maybe_unused]] const void* to_bottom,
                                      [[maybe_unused]] std::size_t to_size) {
#if defined(EUNO_SIM_ASM_SWITCH)
  euno_sim_switch(&from.sp, to.sp);
#else
  EUNO_ASAN_START_SWITCH(from_fake, to_bottom, to_size);
  swapcontext(&from.uc, &to.uc);
  EUNO_ASAN_FINISH_SWITCH(from_fake != nullptr ? *from_fake : nullptr,
                          nullptr, nullptr);
#endif
}

Simulation::Simulation(MachineConfig cfg)
    : cfg_(cfg),
      arena_(std::make_unique<SharedArena>(cfg.arena_bytes)),
      // The fault engine's campaign axis is this simulation's global step
      // counter; taking its address here is safe (it is only dereferenced
      // during run()).
      htm_(std::make_unique<SimHTM>(*arena_, cfg_, &step_)),
      counters_(MachineConfig::kMaxCores) {}

Simulation::~Simulation() {
  for (auto& f : fibers_) {
    if (f->stack) {
      stack_pool().release(static_cast<char*>(f->stack) - kGuardBytes);
    }
  }
}

void Simulation::spawn(int core, std::function<void(int)> body) {
  EUNO_ASSERT_MSG(!running_, "spawn during run() is not supported");
  EUNO_ASSERT(core >= 0 && core < MachineConfig::kMaxCores);
  for (const auto& f : fibers_) {
    EUNO_ASSERT_MSG(f->core != core, "one fiber per simulated core");
  }
  auto fiber = std::make_unique<Fiber>();
  fiber->core = core;
  fiber->index = static_cast<std::uint32_t>(fibers_.size());
  fiber->body = std::move(body);

  void* base = stack_pool().acquire();
  fiber->stack = static_cast<char*>(base) + kGuardBytes;
  fiber->stack_bytes = kStackBytes;

#if defined(EUNO_SIM_ASM_SWITCH)
  // First frame, laid out as euno_sim_switch pops it: FP control state,
  // r15, r14 = entry function, r13 = index, r12 = this, rbx, rbp = 0 (ends
  // frame-pointer chains), return address = euno_sim_fiber_entry. After the
  // ret, rsp is 16-byte aligned, so the entry's call sees the SysV alignment.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpucw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpucw));
  auto* top = reinterpret_cast<std::uint64_t*>(
      static_cast<char*>(fiber->stack) + fiber->stack_bytes);
  std::uint64_t* frame = top - 10;
  frame[0] = mxcsr | static_cast<std::uint64_t>(fpucw) << 32;
  frame[1] = 0;
  frame[2] = reinterpret_cast<std::uint64_t>(&fiber_entry);
  frame[3] = fiber->index;
  frame[4] = reinterpret_cast<std::uint64_t>(this);
  frame[5] = 0;
  frame[6] = 0;
  frame[7] = reinterpret_cast<std::uint64_t>(&euno_sim_fiber_entry);
  frame[8] = frame[9] = 0;
  fiber->ctx.sp = frame;
#else
  ucontext_t& uc = fiber->ctx.uc;
  EUNO_ASSERT(getcontext(&uc) == 0);
  uc.uc_stack.ss_sp = fiber->stack;
  uc.uc_stack.ss_size = fiber->stack_bytes;
  uc.uc_link = nullptr;  // fiber_main never returns
  const auto bits = reinterpret_cast<std::uint64_t>(this);
  makecontext(&uc, reinterpret_cast<void (*)()>(fiber_entry), 3,
              static_cast<unsigned>(bits >> 32), static_cast<unsigned>(bits),
              static_cast<unsigned>(fiber->index));
#endif
  if (core_fiber_.size() <= static_cast<std::size_t>(core)) {
    core_fiber_.resize(static_cast<std::size_t>(core) + 1, nullptr);
  }
  core_fiber_[static_cast<std::size_t>(core)] = fiber.get();
  fibers_.push_back(std::move(fiber));
}

void Simulation::fiber_main(std::uint32_t index) {
  Fiber& f = *fibers_[index];
  // First time on this fiber's stack: complete the switch that started it.
  // The run's first entry comes from the run loop, which is how fibers learn
  // the scheduler stack's bounds for the switch back.
  [[maybe_unused]] const void* from_bottom = nullptr;
  [[maybe_unused]] std::size_t from_size = 0;
  EUNO_ASAN_FINISH_SWITCH(nullptr, &from_bottom, &from_size);
#if defined(EUNO_SIM_ASAN_FIBERS)
  if (sched_stack_bottom_ == nullptr) {
    sched_stack_bottom_ = from_bottom;
    sched_stack_size_ = from_size;
  }
#endif
  try {
    f.body(f.core);
  } catch (const TxAbortException&) {
    std::fprintf(stderr, "fatal: TxAbortException escaped a fiber body\n");
    std::abort();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: exception escaped fiber body: %s\n", e.what());
    std::abort();
  }
  EUNO_ASSERT_MSG(!htm_->in_tx(f.core), "fiber finished with an open transaction");
  f.done = true;
  // Back to the run loop for good (a null fake-stack slot tells ASan this
  // fiber's fake stack dies with it).
  switch_stacks(f.ctx, nullptr, sched_ctx_, sched_stack_bottom_,
                sched_stack_size_);
  EUNO_ASSERT_MSG(false, "finished fiber resumed");
}

void Simulation::begin_slice(Fiber& f) {
  current_ = &f;
  ++switches_;
  obs::EventRing* ring =
      trace_on_ ? &trace_buf_[static_cast<std::size_t>(f.core)] : nullptr;
  active_ring_ = ring;
  if (ring != nullptr) [[unlikely]] {
    ring->append(f.clock, static_cast<std::uint8_t>(obs::EventCode::kRunBegin),
                 0, 0);
  }
}

void Simulation::end_slice(Fiber& f) {
  if (active_ring_ != nullptr) [[unlikely]] {
    active_ring_->append(f.clock,
                         static_cast<std::uint8_t>(obs::EventCode::kRunEnd), 0,
                         0);
  }
  active_ring_ = nullptr;
}

void Simulation::resume(Fiber& f) {
  begin_slice(f);
  switch_stacks(sched_ctx_, &sched_fake_stack_, f.ctx, f.stack, f.stack_bytes);
  end_slice(*current_);  // the fiber that gave control back
  current_ = nullptr;
}

void Simulation::run() {
  EUNO_ASSERT_MSG(!running_, "run() is not reentrant");
  running_ = true;
  Simulation* prev = current_simulation();
  current_simulation() = this;
  sched_stack_bottom_ = nullptr;  // relearned at the first fiber entry

  direct_handoff_ = sched_.policy.deterministic_default();
  if (direct_handoff_) {
    run_deterministic_loop();
  } else {
    run_scheduled_loop();
  }

  current_simulation() = prev;
  running_ = false;
}

void Simulation::run_deterministic_loop() {
  runnable_.clear();
  runnable_.reserve(fibers_.size());
  for (std::size_t i = 0; i < fibers_.size(); ++i) {
    if (!fibers_[i]->done) {
      runnable_.push_back(
          RunnableEntry{fibers_[i]->clock, static_cast<std::uint32_t>(i)});
    }
  }
  std::make_heap(runnable_.begin(), runnable_.end(), std::greater<>{});

  // Each resume returns when a fiber finishes; yields in between hand off
  // fiber to fiber (yield_to_scheduler) and keep the heap current.
  while (!runnable_.empty()) {
    std::pop_heap(runnable_.begin(), runnable_.end(), std::greater<>{});
    Fiber& f = *fibers_[runnable_.back().index];
    runnable_.pop_back();
    // The resumed fiber may run ahead until it passes the next-smallest
    // runnable clock (the new heap top, now that `f` is out of the heap).
    yield_threshold_ = runnable_.empty() ? ~0ull : runnable_.front().clock;
    resume(f);
  }
}

// Generic decision loop for the exploration policies: the running fiber
// yields at every instrumented access (yield_threshold_ = 0), and every
// resume is one explicit scheduling decision. Host-side cost is a fiber
// switch per access — irrelevant for the tiny configurations the
// linearizability harness runs, and never taken by the production policy.
void Simulation::run_scheduled_loop() {
  sched_.decisions.clear();
  sched_.truncated = false;
  sched_.force_switch = false;
  sched_.run_start_step = step_;
  sched_.rng = Xoshiro256(sched_.policy.seed);

  std::vector<std::uint32_t> runnable;  // fiber indices, ascending
  runnable.reserve(fibers_.size());
  for (std::size_t i = 0; i < fibers_.size(); ++i) {
    if (!fibers_[i]->done) runnable.push_back(static_cast<std::uint32_t>(i));
  }

  std::uint32_t last = ~0u;
  std::size_t choice_cursor = 0;
  while (!runnable.empty()) {
    const std::size_t pos = pick_runnable(runnable, last, choice_cursor);
    const std::uint32_t index = runnable[pos];
    runnable.erase(runnable.begin() + static_cast<std::ptrdiff_t>(pos));
    Fiber& f = *fibers_[index];
    yield_threshold_ = 0;  // any charge returns control: access granularity
    resume(f);
    last = index;
    if (!f.done) {
      runnable.insert(std::lower_bound(runnable.begin(), runnable.end(), index),
                      index);
    }
  }
}

std::size_t Simulation::min_clock_pos(
    const std::vector<std::uint32_t>& runnable) const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < runnable.size(); ++i) {
    if (fibers_[runnable[i]]->clock < fibers_[runnable[best]]->clock) best = i;
  }
  return best;  // ties break toward the lower fiber index (list is sorted)
}

std::size_t Simulation::pick_runnable(const std::vector<std::uint32_t>& runnable,
                                      std::uint32_t last,
                                      std::size_t& choice_cursor) {
  const std::size_t n = runnable.size();
  const bool force = sched_.force_switch;
  sched_.force_switch = false;
  if (n == 1) return 0;

  // Livelock safety valve: past the step budget, stop exploring and drain
  // the run with the deterministic policy (which always terminates).
  const auto& sp = sched_.policy;
  if (sp.max_steps != 0 && step_ - sched_.run_start_step > sp.max_steps) {
    sched_.truncated = true;
    return min_clock_pos(runnable);
  }

  switch (sp.mode) {
    case SchedulePolicy::Mode::kDeterministic: {
      // Reached only with adversarial hooks armed: min-clock picks, but a
      // forced switch (tx begin) must leave the yielding fiber if possible.
      std::size_t best = ~std::size_t{0};
      for (std::size_t i = 0; i < n; ++i) {
        if (force && runnable[i] == last) continue;
        if (best == ~std::size_t{0} ||
            fibers_[runnable[i]]->clock < fibers_[runnable[best]]->clock) {
          best = i;
        }
      }
      return best == ~std::size_t{0} ? 0 : best;
    }
    case SchedulePolicy::Mode::kRandom: {
      std::size_t last_pos = n;  // position of the yielding fiber, if runnable
      for (std::size_t i = 0; i < n; ++i) {
        if (runnable[i] == last) {
          last_pos = i;
          break;
        }
      }
      const bool preempt =
          force || sched_.rng.next_bounded(100) < sp.preempt_pct;
      if (!preempt && last_pos < n) return last_pos;
      if (last_pos < n) {
        // Uniform among the *other* fibers: a preemption means a switch.
        const std::size_t k = sched_.rng.next_bounded(n - 1);
        return k + (k >= last_pos ? 1 : 0);
      }
      return sched_.rng.next_bounded(n);
    }
    case SchedulePolicy::Mode::kSystematic: {
      // Round-robin default: the smallest fiber index above the yielding
      // fiber, wrapping — always a switch, so spin loops cannot starve the
      // fiber they wait on.
      std::size_t preferred = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (runnable[i] > last) {
          preferred = i;
          break;
        }
      }
      std::size_t chosen = preferred;
      if (choice_cursor < sp.choices.size()) {
        chosen = std::min<std::size_t>(sp.choices[choice_cursor], n - 1);
      }
      ++choice_cursor;
      sched_.decisions.push_back(ScheduleDecision{
          static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(chosen),
          static_cast<std::uint32_t>(preferred)});
      return chosen;
    }
  }
  return 0;
}

void Simulation::set_schedule_policy(SchedulePolicy p) {
  EUNO_ASSERT_MSG(!running_, "set_schedule_policy during run() is not supported");
  sched_.policy = std::move(p);
  sched_.hooks_armed = sched_.policy.preempt_on_tx_begin ||
                       sched_.policy.abort_storm_pct > 0;
  sched_.rng = Xoshiro256(sched_.policy.seed);
}

void Simulation::sched_tx_begin_slow(int core) {
  if (current_ == nullptr) return;
  // Storm first: a doomed transaction never gets to run, so preempting it
  // as well would only explore redundant schedules. Throws through the
  // explicit-abort path; SimCtx::txn's catch handles it like any abort.
  if (sched_.policy.abort_storm_pct > 0 &&
      sched_.rng.next_bounded(100) < sched_.policy.abort_storm_pct) {
    htm_->tx_abort_explicit(core, htm::xabort_code::kSchedulerInjected);
  }
  if (sched_.policy.preempt_on_tx_begin) {
    sched_.force_switch = true;
    yield_to_scheduler();
  }
}

void Simulation::yield_to_scheduler() {
  Fiber* f = current_;
  EUNO_ASSERT(f != nullptr);
  if (!direct_handoff_) {
    switch_stacks(f->ctx, &f->fake_stack, sched_ctx_, sched_stack_bottom_,
                  sched_stack_size_);
    return;
  }
  // Direct handoff. `f` passed the yield threshold, i.e. the heap top's
  // clock, so the top is strictly smaller in (clock, index) and is the
  // fiber the scheduler would pick next: swap `f` in for it with one
  // sift-down from the root, and switch straight to it.
  Fiber& next = *fibers_[runnable_.front().index];
  const RunnableEntry self{f->clock, f->index};
  const std::size_t n = runnable_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && runnable_[child] > runnable_[child + 1]) ++child;
    if (!(self > runnable_[child])) break;
    runnable_[hole] = runnable_[child];
    hole = child;
  }
  runnable_[hole] = self;
  yield_threshold_ = runnable_.front().clock;
  end_slice(*f);
  begin_slice(next);
  switch_stacks(f->ctx, &f->fake_stack, next.ctx, next.stack,
                next.stack_bytes);
}

void Simulation::spin_wait() {
  if (current_ == nullptr) return;
  counters_[current_->core].cycles_spinning += cfg_.costs.spin_wait;
  charge(cfg_.costs.spin_wait);
}

void Simulation::compute(std::uint64_t n) {
  if (current_ == nullptr) return;
  counters_[current_->core].instructions += n;
  charge(n);
}

void Simulation::enable_trace() {
  if constexpr (!obs::kCompiledIn) return;
  trace_on_ = true;
  if (trace_buf_.empty()) {
    trace_buf_.resize(static_cast<std::size_t>(MachineConfig::kMaxCores));
  }
}

std::vector<TraceEvent> Simulation::trace_events() const {
  return obs::merge_ring_events(trace_buf_);
}

obs::TraceStream Simulation::take_trace() {
  EUNO_ASSERT_MSG(!running_, "take_trace during run() is not supported");
  obs::TraceStream stream(std::move(trace_buf_));
  trace_buf_.clear();  // moved-from: make the empty state explicit
  if (trace_on_) {
    // Keep the invariant enable_trace() established: rings exist for every
    // core while tracing is on (a subsequent run() records again).
    trace_buf_.resize(static_cast<std::size_t>(MachineConfig::kMaxCores));
  }
  return stream;
}

void Simulation::enable_contention(obs::ContentionMap* map,
                                   obs::NodeRegistry* reg) {
  if constexpr (!obs::kCompiledIn) return;
  node_registry_ = reg;
  htm_->set_contention_map(map);
}

int Simulation::current_core() const {
  EUNO_ASSERT(current_ != nullptr);
  return current_->core;
}

std::uint64_t Simulation::max_clock() const {
  std::uint64_t m = 0;
  for (const auto& f : fibers_) m = std::max(m, f->clock);
  return m;
}

}  // namespace euno::sim
