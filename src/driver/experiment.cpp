#include "driver/experiment.hpp"

#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "ctx/native_ctx.hpp"
#include "ctx/sim_ctx.hpp"
#include "store/sharded_store.hpp"
#include "trees/registry.hpp"
#include "util/memstats.hpp"
#include "util/tsc.hpp"
#include "workload/openloop.hpp"
#include "workload/strkeys.hpp"

namespace euno::driver {

using trees::node::BytesView;
using workload::Op;
using workload::OpType;

std::string tree_kind_name(TreeKind k) {
  return trees::tree_registry().expect(k).display;
}

namespace {

/// Rows kept in the hottest-lines attribution table.
constexpr std::size_t kHotLinesTopK = 16;

void aggregate_stats(const ctx::SiteStats& s, ExperimentResult* r) {
  const htm::TxStats total = s.total();
  r->commits += total.commits;
  r->attempts += total.attempts;
  r->fallbacks += total.fallbacks;
  r->aborts_total += total.total_aborts();
  r->aborts_conflict +=
      total.aborts[static_cast<int>(htm::AbortReason::kConflict)];
  r->aborts_capacity +=
      total.aborts[static_cast<int>(htm::AbortReason::kCapacity)];
  r->aborts_other += total.total_aborts() -
                     total.aborts[static_cast<int>(htm::AbortReason::kConflict)] -
                     total.aborts[static_cast<int>(htm::AbortReason::kCapacity)];
  r->conflicts_true_same_record +=
      total.conflicts[static_cast<int>(htm::ConflictKind::kTrueSameRecord)];
  r->conflicts_false_record +=
      total.conflicts[static_cast<int>(htm::ConflictKind::kFalseRecord)];
  r->conflicts_false_metadata +=
      total.conflicts[static_cast<int>(htm::ConflictKind::kFalseMetadata)];
  r->conflicts_lock_subscription +=
      total.conflicts[static_cast<int>(htm::ConflictKind::kLockSubscription)];
  r->upper_aborts += s.at(ctx::TxSite::kUpper).total_aborts();
  r->lower_aborts += s.at(ctx::TxSite::kLower).total_aborts();
  r->mono_aborts += s.at(ctx::TxSite::kMono).total_aborts();
  r->lock_wait_cycles += total.lock_wait_cycles;
  r->lock_wait_timeouts += total.lock_wait_timeouts;
  r->backoff_cycles += total.backoff_cycles;
  r->starvation_escapes += total.starvation_escapes;
  r->degradations += total.degradations;
  r->unsubscribed_attempts += total.unsubscribed_attempts;
  r->validation_failures += total.validation_failures;
  r->middle_attempts += total.middle_attempts;
  r->middle_commits += total.middle_commits;
  r->slow_path_ops += total.slow_path_ops;
  r->epoch_retired += total.epoch_retired;
  r->deadline_exceeded += total.deadline_exceeded;
}

// The registry's factories for each execution context.
template <class Ctx>
struct Factories;
template <>
struct Factories<ctx::SimCtx> {
  static constexpr auto tree = &trees::TreeEntry::make_sim;
  static constexpr auto str_tree = &trees::TreeEntry::make_sim_str;
};
template <>
struct Factories<ctx::NativeCtx> {
  static constexpr auto tree = &trees::TreeEntry::make_native;
  static constexpr auto str_tree = &trees::TreeEntry::make_native_str;
};

/// What a run drives: one registry tree or, when the spec enables the store
/// layer, a store::ShardedStore of them (DESIGN.md §15); over u64 keys or,
/// in the bytes domain, string keys a StringKeySpace derives from each op's
/// sampled key id (the distribution machinery applies unchanged). Exactly
/// one of tree_, str_tree_ and store_ is set.
template <class Ctx>
class Target {
 public:
  Target(const ExperimentSpec& spec, Ctx& setup, double clock_hz)
      : spec_(spec) {
    const trees::TreeEntry& entry = trees::tree_registry().expect(spec.tree);
    trees::TreeBuildOptions build;
    build.policy = spec.policy;
    const auto make = entry.*Factories<Ctx>::tree;
    const auto make_str = entry.*Factories<Ctx>::str_tree;
    const bool bytes = spec.workload.key_domain == workload::KeyDomain::kBytes;
    if (bytes) {
      EUNO_ASSERT_MSG(make_str != nullptr, "tree has no bytes-domain factory");
      ks_.emplace(spec.workload.key_style, spec.workload.seed);
    }
    if (spec.store.enabled()) {
      const store::StoreRuntime rt{clock_hz};
      if (bytes) {
        store_.emplace(setup, spec.store, rt,
                       [&](Ctx& c) { return make_str(c, build); });
      } else {
        store_.emplace(setup, spec.store, rt,
                       [&](Ctx& c) { return make(c, build); });
      }
    } else if (bytes) {
      str_tree_ = make_str(setup, build);
    } else {
      tree_ = make(setup, build);
    }
  }

  /// Preloads the hottest `spec.preload` ranks (every preload_stride-th) so
  /// the measured phase hits a warm structure; the remaining cold ranks
  /// produce fresh inserts. A store preloads straight into the owning shard:
  /// admission and deadlines are not part of the warmup.
  void preload(Ctx& c) {
    const workload::WorkloadSpec& w = spec_.workload;
    Xoshiro256 rng(w.seed ^ 0x9e3779b97f4a7c15ull);
    for (std::uint64_t i = 0; i < spec_.preload; ++i) {
      const std::uint64_t rank = i * spec_.preload_stride;
      if (rank >= w.key_range) break;
      const std::uint64_t id =
          workload::rank_to_key(rank, w.key_range, w.scramble);
      const std::uint64_t v = rng.next();
      if (!ks_) {
        if (store_) {
          store_->preload_put(c, id, v);
        } else {
          tree_->put(c, id, v);
        }
        continue;
      }
      const std::string key = ks_->key_of(id);
      const std::string payload = ks_->payload_of(id, v, w.value_bytes);
      const BytesView kv(key.data(), key.size());
      const BytesView pv(payload.data(), payload.size());
      if (store_) {
        store_->preload_put_str(c, kv, v, pv);
      } else {
        str_tree_->put(c, kv, v, pv);
      }
    }
  }

  /// Runs one op scheduled at `sched` (a store counts the op's deadline from
  /// it); true when the op completed. A single tree completes every op; a
  /// store may shed one or see it miss its deadline. `scan_buf` holds
  /// workload.scan_len records. Bytes-domain ops first build their key (and
  /// a put's payload) text: part of the client, inside the latency window.
  bool execute(Ctx& c, const Op& op, std::uint64_t sched, trees::KV* scan_buf) {
    if (!ks_) {
      if (store_) return store_->execute(c, op, sched, scan_buf).served();
      store::run_tree_op(*tree_, c, op, scan_buf);
      return true;
    }
    const std::string key = ks_->key_of(op.key);
    std::string payload;
    if (op.type == OpType::kPut) {
      payload = ks_->payload_of(op.key, op.value, spec_.workload.value_bytes);
    }
    const BytesView kv(key.data(), key.size());
    const BytesView pv(payload.data(), payload.size());
    if (store_) {
      return store_->execute_str(c, op.type, kv, op.value, pv, op.scan_len,
                                 sched, emit_)
          .served();
    }
    store::run_str_tree_op(*str_tree_, c, op.type, kv, op.value, pv,
                           op.scan_len, emit_);
    return true;
  }

  /// Throughput is goodput: completed ops per measured second. A store adds
  /// its totals. Mid-flight deadline unwinds were already aggregated from
  /// TxStats; the store adds its pre-check rejections, so deadline_exceeded
  /// counts each op that missed its deadline exactly once.
  void fold(std::uint64_t completed, double seconds, ExperimentResult* r) const {
    r->throughput_mops =
        seconds > 0 ? static_cast<double>(completed) / seconds / 1e6 : 0;
    if (!store_) return;
    const store::StoreTotals tot = store_->accumulate();
    r->admitted_ops = tot.admitted;
    r->shed_ops = tot.shed;
    r->shard_degradations = tot.degradations;
    r->deadline_exceeded += tot.deadline_exceeded;
  }

  void destroy(Ctx& c) {
    if (store_) store_->destroy(c);
    if (tree_) tree_->destroy(c);
    if (str_tree_) str_tree_->destroy(c);
  }

 private:
  const ExperimentSpec& spec_;
  std::optional<workload::StringKeySpace> ks_;
  std::unique_ptr<trees::AnyTree<Ctx>> tree_;
  std::unique_ptr<trees::AnyStrTree<Ctx>> str_tree_;
  std::optional<store::ShardedStore<Ctx>> store_;
  // Scans decode every record through the ctx (charged by the cost model);
  // the client keeps none of them.
  const trees::node::StrEmitFn emit_ = [](BytesView, trees::Value,
                                          BytesView) {};
};

/// One client's generators. Building the op stream includes the Zipfian ζ
/// precompute (about 20 ms cold at 1 Mi keys), so every client's streams are
/// built before a run reads its clock origin: neither a native run's
/// measured window nor an open-loop schedule may include generator set-up.
struct ClientStreams {
  workload::DriftingOpStream ops;
  workload::ArrivalStream arrivals;
};

std::vector<ClientStreams> make_client_streams(const ExperimentSpec& spec,
                                               double clock_hz) {
  // One arrival schedule for all clients. Its seed is derived from (but
  // distinct from) the key-choice seed, so workload and arrival randomness
  // stay independent streams.
  workload::OpenLoopSpec ol;
  ol.seed = spec.workload.seed ^ 0x0B5E55ull;
  ol.clients = spec.threads;
  ol.think = spec.store.think;
  if (spec.store.open_loop()) {
    // Aggregate offered load splits evenly across clients: per-client mean
    // inter-arrival = clients / rate, in ctx clock units.
    ol.mean_gap = clock_hz * static_cast<double>(spec.threads) /
                  (spec.store.offered_load_mops * 1e6);
  }
  std::vector<ClientStreams> clients;
  clients.reserve(static_cast<std::size_t>(spec.threads));
  for (int t = 0; t < spec.threads; ++t) {
    clients.push_back(
        {{spec.workload, t, spec.store.drift_to, spec.ops_per_thread}, {ol, t}});
  }
  return clients;
}

/// One client's issue loop. A closed-loop client issues each op as soon as
/// the previous one returns; an open-loop client issues on its arrival
/// schedule, counted from the backend's clock origin, and idles until each
/// arrival. An op's latency window runs from its scheduled arrival (closed
/// loop: its issue) to its completion, so open-loop latency is sojourn time
/// and backlog shows up in the histograms instead of silently throttling
/// the offered rate. Only completed ops are recorded: latency percentiles
/// are percentiles of served ops. Returns the number of completed ops.
template <class Backend, class Ctx>
std::uint64_t run_client(Backend& b, Ctx& c, const ExperimentSpec& spec,
                         ClientStreams& client, Target<Ctx>& target) {
  client.arrivals.start_at(b.origin());
  const bool open_loop = spec.store.open_loop();
  obs::ThreadObs* tobs = c.observer();
  std::vector<trees::KV> scan_buf(spec.workload.scan_len);
  std::uint64_t completed = 0;
  // No completion yet: the think floor only follows a completed op.
  std::uint64_t completion = 0;
  for (std::uint64_t i = 0; i < spec.ops_per_thread; ++i) {
    std::uint64_t sched = 0;
    if (open_loop) {
      sched = client.arrivals.next(completion);
      b.idle_until(c, sched);
    }
    const Op op = client.ops.next();
    c.note_event(ctx::TraceCode::kOpBegin, static_cast<std::uint8_t>(op.type));
    if (!open_loop) sched = c.now();
    const bool done = target.execute(c, op, sched, scan_buf.data());
    completion = c.now();
    if (done) {
      completed++;
      if (tobs != nullptr) {
        tobs->op_latency.record(completion - sched);
        tobs->series.record_op(completion, completion - sched);
      }
    }
    c.note_event(ctx::TraceCode::kOpEnd, static_cast<std::uint8_t>(op.type));
  }
  return completed;
}

/// The simulated multicore: clients are fibers on the deterministic engine,
/// the clock is each core's cycle counter (origin 0), and an idle client
/// charges the cycles it waits. Observability channels record host-side and
/// charge no simulated cycles — the machine model cannot see any of them.
class SimBackend {
 public:
  using Ctx = ctx::SimCtx;

  SimBackend(const ExperimentSpec& spec, const obs::ObsOptions& opt)
      : spec_(spec), opt_(opt), sim_(spec.machine) {
    EUNO_ASSERT(spec.threads >= 1 &&
                spec.threads <= spec.machine.topology.total_cores());
    // Enabled before the tree exists so node allocations register.
    if (opt.contention) sim_.enable_contention(&cmap_, &node_reg_);
    if (opt.trace) sim_.enable_trace();
  }

  sim::Simulation& engine() { return sim_; }
  double clock_hz() const { return spec_.ghz * 1e9; }
  std::uint64_t origin() const { return 0; }
  template <class Fn>
  void preload(Fn fn) {
    fn();
  }

  /// Runs client(c, t) for every client t on its own fiber.
  template <class Client>
  void run_clients(Client client) {
    for (int t = 0; t < spec_.threads; ++t) {
      sim_.spawn(t, [&, t](int core) {
        Ctx c(sim_, core);
        client(c, t);
      });
    }
    sim_.run();
  }

  void idle_until(Ctx& c, std::uint64_t target) {
    const std::uint64_t now = c.now();
    if (target > now) sim_.charge(target - now);
  }

  double seconds() const {
    return static_cast<double>(sim_.max_clock()) / clock_hz();
  }

  /// Engine-only results: simulated time and instruction counts, the
  /// contention table, trace, time-series and injected-fault counters.
  void finish(std::vector<obs::ThreadObs>& tobs, ExperimentResult* r) {
    r->sim_cycles = sim_.max_clock();
    r->sim_switches = sim_.switches();
    std::uint64_t instr = 0, wasted = 0, clock_sum = 0;
    for (int t = 0; t < spec_.threads; ++t) {
      instr += sim_.counters(t).instructions;
      r->mem_accesses += sim_.counters(t).mem_accesses;
      wasted += sim_.counters(t).cycles_wasted;
      clock_sum += sim_.clock_of(t);
    }
    r->instructions_per_op =
        static_cast<double>(instr) / static_cast<double>(r->ops);
    r->wasted_cycle_frac =
        clock_sum > 0
            ? static_cast<double>(wasted) / static_cast<double>(clock_sum)
            : 0;
    if (opt_.contention) r->hot_lines = cmap_.top_k(kHotLinesTopK, &node_reg_);
    if (opt_.trace) r->trace = sim_.take_trace();
    if (opt_.metrics_interval != 0) {
      for (int t = 0; t < spec_.threads; ++t) {
        tobs[static_cast<std::size_t>(t)].series.finish(sim_.clock_of(t));
      }
      r->timeseries = obs::merge_series(opt_.metrics_interval, "cycles", tobs);
    }
    const sim::FaultCounters& fc = sim_.fault_counters();
    r->faults_spurious = fc.spurious_aborts;
    r->faults_burst = fc.burst_aborts;
    r->faults_lock_delay = fc.lock_hold_delays;
    r->fault_capacity_phases = fc.capacity_phases;
  }

 private:
  const ExperimentSpec& spec_;
  const obs::ObsOptions opt_;
  sim::Simulation sim_;
  obs::ContentionMap cmap_;
  obs::NodeRegistry node_reg_;
};

/// Real threads (real RTM when present): the clock is wall nanoseconds from
/// a shared origin read after every client's streams are built, and the
/// measured seconds are the wall time of the client threads. Native obs
/// channels are latency histograms, per-thread event rings (obs.trace),
/// windowed time-series and perf counters; contention attribution is
/// sim-only.
class NativeBackend {
 public:
  using Ctx = ctx::NativeCtx;

  NativeBackend(const ExperimentSpec& spec, const obs::ObsOptions& opt)
      : spec_(spec),
        opt_(opt),
        env_(64),
        rings_(opt.trace ? static_cast<std::size_t>(spec.threads) : 0) {
    // The counter fds must exist before the worker threads do: inherit=1 on
    // each fd makes threads spawned afterwards count into it.
    if (opt.perf) {
      perf_.emplace();
      perf_out_.attempted = true;
    }
  }

  ctx::NativeEnv& engine() { return env_; }
  double clock_hz() const { return 1e9; }
  std::uint64_t origin() const { return origin_; }
  template <class Fn>
  void preload(Fn fn) {
    if (perf_) perf_->start();
    fn();
    sample_perf("preload");
  }

  /// Runs client(c, t) for every client t on its own thread.
  template <class Client>
  void run_clients(Client client) {
    // One origin for every thread's trace timestamps, series windows and
    // arrival schedules.
    origin_ = util::monotonic_ns();
    if (perf_) perf_->start();
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (int t = 0; t < spec_.threads; ++t) {
      workers.emplace_back([&, t] {
        Ctx c(env_, t);
        if (!rings_.empty()) {
          c.set_trace_ring(&rings_[static_cast<std::size_t>(t)], origin_);
        }
        client(c, t);
      });
    }
    for (auto& w : workers) w.join();
    const auto t1 = std::chrono::steady_clock::now();
    seconds_ = std::chrono::duration<double>(t1 - t0).count();
    sample_perf("measure");
  }

  static void idle_until(Ctx&, std::uint64_t target) {
    while (util::monotonic_ns() < target) cpu_relax();
  }

  double seconds() const { return seconds_; }

  /// Native-only results: latency and series windows are in wall
  /// nanoseconds; trace rings and perf phases are handed over as recorded.
  void finish(std::vector<obs::ThreadObs>& tobs, ExperimentResult* r) {
    if (opt_.metrics_interval != 0) {
      const std::uint64_t end_ts = util::monotonic_ns();
      for (auto& to : tobs) to.series.finish(end_ts);
      r->timeseries = obs::merge_series(opt_.metrics_interval, "ns", tobs);
    }
    if (!rings_.empty()) r->trace = obs::TraceStream(std::move(rings_));
    r->perf = std::move(perf_out_);
  }

 private:
  void sample_perf(const char* phase) {
    if (!perf_) return;
    perf_->stop();
    perf_out_.phases.push_back(perf_->sample(phase));
  }

  const ExperimentSpec& spec_;
  const obs::ObsOptions opt_;
  ctx::NativeEnv env_;
  std::vector<obs::EventRing> rings_;
  std::optional<obs::PerfCounterGroup> perf_;
  obs::PerfSample perf_out_;
  std::uint64_t origin_ = 0;
  double seconds_ = 0;
};

/// The one experiment runner: build the target, preload it, run every
/// client's issue loop on the backend, then fold stats, goodput, memory and
/// the obs channels into the result.
template <class Backend>
ExperimentResult run_experiment(const ExperimentSpec& spec) {
  using Ctx = typename Backend::Ctx;
  const obs::ObsOptions opt = obs::kCompiledIn ? spec.obs : obs::ObsOptions{};
  Backend b(spec, opt);
  MemStats::instance().reset();

  Ctx setup(b.engine(), 0);
  Target<Ctx> target(spec, setup, b.clock_hz());
  b.preload([&] { target.preload(setup); });

  const auto n = static_cast<std::size_t>(spec.threads);
  std::vector<ClientStreams> clients = make_client_streams(spec, b.clock_hz());
  std::vector<obs::ThreadObs> tobs(
      opt.latency || opt.metrics_interval != 0 ? n : 0);
  std::vector<ctx::SiteStats> stats(n);
  std::vector<std::uint64_t> completed(n, 0);
  b.run_clients([&](Ctx& c, int t) {
    const auto i = static_cast<std::size_t>(t);
    if (!tobs.empty()) {
      tobs[i].series.configure(opt.metrics_interval, b.origin());
      c.set_observer(&tobs[i]);
    }
    completed[i] = run_client(b, c, spec, clients[i], target);
    stats[i] = c.stats();
  });

  ExperimentResult r;
  r.ops = spec.ops_per_thread * static_cast<std::uint64_t>(spec.threads);
  for (const auto& s : stats) aggregate_stats(s, &r);
  r.aborts_per_op =
      static_cast<double>(r.aborts_total) / static_cast<double>(r.ops);
  std::uint64_t total_completed = 0;
  for (const auto k : completed) total_completed += k;
  target.fold(total_completed, b.seconds(), &r);

  auto& ms = MemStats::instance();
  r.mem_total = ms.tree_live_bytes();
  r.mem_reserved = ms.snapshot(MemClass::kReservedKeys).live_bytes;
  r.mem_ccm = ms.snapshot(MemClass::kCCM).live_bytes;
  r.suffix_bytes = ms.snapshot(MemClass::kBytesBox).live_bytes;

  if (opt.latency) {
    for (const auto& t : tobs) {
      r.op_latency.merge(t.op_latency);
      r.abort_wasted.merge(t.abort_wasted);
    }
    r.lat_p50 = static_cast<double>(r.op_latency.percentile(0.50));
    r.lat_p90 = static_cast<double>(r.op_latency.percentile(0.90));
    r.lat_p99 = static_cast<double>(r.op_latency.percentile(0.99));
    r.lat_p999 = static_cast<double>(r.op_latency.percentile(0.999));
  }
  b.finish(tobs, &r);

  Ctx teardown(b.engine(), 0);
  target.destroy(teardown);
  return r;
}

}  // namespace

ExperimentResult run_sim_experiment(const ExperimentSpec& spec) {
  return run_experiment<SimBackend>(spec);
}

ExperimentResult run_native_experiment(const ExperimentSpec& spec) {
  return run_experiment<NativeBackend>(spec);
}

}  // namespace euno::driver
