// native-url-store: real threads (one client), closed loop, a ShardedStore of
// str-htm-bptree shards over shared-prefix url keys. The simulator is not
// used: this measures the native SIMD node kernels, NativeCtx's fallback-lock
// path (the only path a host without RTM runs), box_key_compare on url keys
// and BytesBox epoch reclamation.
//
// The single client gives an exact read-your-writes oracle: every get must
// return the value last put (or preloaded) for its key, and every scan must
// emit strictly ascending keys >= its start key, at most scan_len of them.
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

#include "common.hpp"
#include "ctx/native_ctx.hpp"
#include "store/sharded_store.hpp"
#include "util/memstats.hpp"
#include "util/rng.hpp"
#include "util/tsc.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using euno::ctx::NativeCtx;
using euno::store::OpResult;
using euno::store::StoreStatus;
using euno::trees::node::bytes_compare;
using euno::workload::Op;
using euno::workload::OpType;
using NativeStore = euno::store::ShardedStore<NativeCtx>;

/// Fresh stores per untraced run; setup_s is the median of their set-ups.
constexpr int kSegments = 5;
/// Throughput and latency are medians over windows of this length.
constexpr double kWindowSeconds = 0.5;
/// Ops per phase of a traced run (phases alternate untraced/traced).
constexpr std::uint64_t kPhaseOps = 50000;

euno::workload::WorkloadSpec url_spec(std::uint64_t seed, bool quick) {
  euno::workload::WorkloadSpec w;
  w.key_range = quick ? (1u << 14) : (1u << 17);
  w.mix = euno::workload::OpMix{70, 20, 10, 0};
  w.dist = euno::workload::DistKind::kZipfian;
  w.dist_param = 0.5;
  w.scramble = true;
  w.scan_len = 16;
  w.seed = seed;
  w.key_domain = euno::workload::KeyDomain::kBytes;
  w.key_style = euno::workload::KeyStyle::kUrl;
  w.value_bytes = 32;
  return w;
}

/// Checks one scan's emitted keys as they arrive.
struct ScanCheck {
  BytesView start;
  std::string prev;
  std::size_t n = 0;
  bool bad = false;

  void begin(BytesView s) {
    start = s;
    n = 0;
    bad = false;
  }
  void on_key(BytesView k) {
    if (bytes_compare(k.data, k.len, start.data, start.len) < 0) bad = true;
    if (n > 0 && bytes_compare(prev.data(), prev.size(), k.data, k.len) >= 0) {
      bad = true;
    }
    prev.assign(k.data, k.len);
    n++;
  }
};

/// One set-up store with its oracle, generator and client context.
class UrlStore {
 public:
  UrlStore(const euno::workload::WorkloadSpec& w, euno::ctx::NativeEnv& env,
           std::vector<SpanLog>* logs)
      : w_(w), ks_(w.key_style, w.seed), env_(env), client_(env, 0) {
    const auto t_setup = Clock::now();
    euno::MemStats::instance().reset();
    const euno::trees::TreeEntry* e =
        euno::trees::tree_registry().by_name("str-htm-bptree");
    if (e == nullptr) {
      std::fprintf(stderr, "perfbench: tree 'str-htm-bptree' is not registered\n");
      std::exit(2);
    }
    euno::trees::TreeBuildOptions build;
    euno::store::StoreOptions so;
    so.shards = 8;
    NativeCtx setup(env, 0);
    store_ = std::make_unique<NativeStore>(
        setup, so, euno::store::StoreRuntime{1e9},
        [&](NativeCtx& c) -> std::unique_ptr<AnyStrTree<NativeCtx>> {
          std::unique_ptr<AnyStrTree<NativeCtx>> t = e->make_native_str(c, build);
          if (logs != nullptr) {
            t = std::make_unique<TracedStrTree<NativeCtx>>(std::move(t), logs);
          }
          trees_.push_back(t.get());
          return t;
        });
    // Preload half the key range at stride 2, as run_store_native does.
    oracle_.reserve(w.key_range);
    euno::Xoshiro256 rng(w.seed ^ 0x9e3779b97f4a7c15ull);
    for (std::uint64_t rank = 0; rank < w.key_range; rank += 2) {
      const std::uint64_t id =
          euno::workload::rank_to_key(rank, w.key_range, w.scramble);
      const std::uint64_t v = rng.next();
      const std::string key = ks_.key_of(id);
      const std::string payload = ks_.payload_of(id, v, w.value_bytes);
      store_->preload_put_str(setup, BytesView(key), v, BytesView(payload));
      oracle_[id] = v;
    }
    const auto t_gen = Clock::now();
    stream_ = std::make_unique<euno::workload::OpStream>(w, 0);
    gen_setup_s_ = seconds_since(t_gen);
    setup_s_ = seconds_since(t_setup);
    retired_at_start_ = retired();
  }

  ~UrlStore() {
    NativeCtx teardown(env_, 0);
    store_->destroy(teardown);
  }
  UrlStore(const UrlStore&) = delete;
  UrlStore& operator=(const UrlStore&) = delete;

  /// Issues one op and checks it against the oracle. Returns the service
  /// time of the execute_str call; `busy_ns` grows by the op's time from
  /// issue (generation included) to completion, excluding the check.
  std::uint64_t run_op(SpanLog* log, std::uint64_t id, std::uint64_t* busy_ns) {
    NativeCtx& c = client_;
    const std::uint64_t t_issue = c.now();
    std::uint32_t op_span = kNoSpan;
    if (log != nullptr) {
      log->begin_op(id);
      op_span = log->open(kSpanOp, t_issue);
    }
    Op op;
    {
      ScopedSpan<NativeCtx> s(log, c, kSpanNext);
      op = stream_->next();
    }
    {
      ScopedSpan<NativeCtx> s(log, c, kSpanKeyOf);
      key_ = ks_.key_of(op.key);
    }
    BytesView payload;
    if (op.type == OpType::kPut) {
      ScopedSpan<NativeCtx> s(log, c, kSpanPayloadOf);
      payload_ = ks_.payload_of(op.key, op.value, w_.value_bytes);
      payload = BytesView(payload_);
    }
    scan_.begin(BytesView(key_));
    const std::uint64_t t0 = c.now();
    OpResult res;
    {
      ScopedSpan<NativeCtx> s(log, c, kSpanStoreExecute);
      res = store_->execute_str(c, op.type, BytesView(key_), op.value, payload,
                                op.scan_len, t0, emit_);
    }
    const std::uint64_t t1 = c.now();
    if (log != nullptr) {
      log->close(op_span, t1);
      log->end_op();
    }
    *busy_ns += t1 - t_issue;
    ops_++;
    verify(op, res);
    return t1 - t0;
  }

  /// Post-run checks: invariants of every shard, and the store's contents
  /// equal to the oracle (size and every value).
  void final_check(Report& r) {
    store_->check_invariants();
    const std::size_t size = store_->size_slow();
    std::uint64_t bad = size > oracle_.size() ? size - oracle_.size()
                                              : oracle_.size() - size;
    for (const auto& [id, v] : oracle_) {
      const std::string key = ks_.key_of(id);
      const OpResult res =
          store_->execute_str(client_, OpType::kGet, BytesView(key), 0, {}, 0,
                              client_.now(), emit_);
      if (res.status != StoreStatus::kOk || res.value != v) bad++;
    }
    wrong_ += bad;
    r.failed += wrong_;
    if (wrong_ != 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "url store: %" PRIu64 " wrong results (%zu live keys, %zu "
                    "expected)",
                    wrong_, size, oracle_.size());
      r.check(false, buf);
    }
    live_keys_ = size;
  }

  std::uint64_t retired() const {
    std::uint64_t n = 0;
    for (auto* t : trees_) n += t->retired_boxes();
    return n;
  }
  std::uint64_t freed() const {
    std::uint64_t n = 0;
    for (auto* t : trees_) n += t->freed_boxes();
    return n;
  }

  std::uint64_t ops() const { return ops_; }
  std::uint64_t puts() const { return puts_; }
  std::uint64_t wrong() const { return wrong_; }
  std::uint64_t live_keys() const { return live_keys_; }
  std::uint64_t retired_at_start() const { return retired_at_start_; }
  double setup_s() const { return setup_s_; }
  double gen_setup_s() const { return gen_setup_s_; }
  const euno::ctx::SiteStats& client_stats() const { return client_.stats(); }
  const euno::workload::OpStream& stream() const { return *stream_; }

 private:
  void verify(const Op& op, const OpResult& res) {
    bool ok = true;
    switch (op.type) {
      case OpType::kGet: {
        const auto it = oracle_.find(op.key);
        if (res.status == StoreStatus::kOk) {
          ok = it != oracle_.end() && it->second == res.value;
        } else {
          ok = res.status == StoreStatus::kNotFound && it == oracle_.end();
        }
        break;
      }
      case OpType::kPut:
        ok = res.status == StoreStatus::kOk;
        oracle_[op.key] = op.value;
        puts_++;
        break;
      case OpType::kScan:
        ok = res.status == StoreStatus::kOk && !scan_.bad &&
             scan_.n == res.scanned && res.scanned <= op.scan_len;
        break;
      case OpType::kDelete:
        ok = false;  // not in the mix
        break;
    }
    if (!ok) wrong_++;
  }

  euno::workload::WorkloadSpec w_;
  euno::workload::StringKeySpace ks_;
  euno::ctx::NativeEnv& env_;
  NativeCtx client_;
  std::vector<AnyStrTree<NativeCtx>*> trees_;  // shard order
  std::unique_ptr<NativeStore> store_;
  std::unique_ptr<euno::workload::OpStream> stream_;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle_;
  ScanCheck scan_;
  StrEmitFn emit_ = [this](BytesView k, Value, BytesView) { scan_.on_key(k); };
  std::string key_, payload_;
  std::uint64_t ops_ = 0, puts_ = 0, wrong_ = 0, live_keys_ = 0;
  std::uint64_t retired_at_start_ = 0;
  double setup_s_ = 0, gen_setup_s_ = 0;
};

void add_digest(const UrlStore& s, Report& r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "opstream_digest %016" PRIx64,
                opstream_digest(euno::workload::OpStream(s.stream().spec(), 0), 64));
  r.notes.push_back(buf);
}

/// Untraced run: the time is split into segments, each measuring a freshly
/// set-up store in windows. Spreading the set-ups over the run lets their
/// median, and the windows' medians, see the host's slow and fast spells
/// alike instead of whichever one the run started in.
void measure(const Options& opt, const euno::workload::WorkloadSpec& w,
             euno::ctx::NativeEnv& env, Report& r) {
  const int segments = opt.quick ? 2 : kSegments;
  const double window = opt.quick ? 0.1 : kWindowSeconds;
  std::vector<double> setups, w_mops, w_p50, w_p999, bpk;
  std::vector<std::uint32_t> lat;
  double gen_setup_s = 0;
  std::uint64_t ops = 0, busy = 0, wrong = 0, live = 0;
  double wall_s = 0;
  for (int seg = 0; seg < segments; ++seg) {
    UrlStore s(w, env, nullptr);
    setups.push_back(s.setup_s());
    if (seg == 0) {
      gen_setup_s = s.gen_setup_s();
      add_digest(s, r);
    }
    const auto t0 = Clock::now();
    do {
      lat.clear();
      std::uint64_t w_busy = 0;
      const auto tw = Clock::now();
      do {
        for (int i = 0; i < 256; ++i) {
          lat.push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(
              s.run_op(nullptr, s.ops(), &w_busy), ~0u)));
        }
      } while (seconds_since(tw) < window);
      const double w_wall = seconds_since(tw);
      wall_s += w_wall;
      busy += w_busy;
      w_mops.push_back(ratio(static_cast<double>(lat.size()), w_wall) * 1e-6);
      w_p50.push_back(static_cast<double>(quantile(lat, 0.5)));
      w_p999.push_back(static_cast<double>(quantile(lat, 0.999)));
    } while (seconds_since(t0) < opt.seconds / segments);
    s.final_check(r);
    r.attempted += s.ops();
    ops += s.ops();
    wrong += s.wrong();
    live = s.live_keys();
    bpk.push_back(
        ratio(static_cast<double>(euno::MemStats::instance().tree_live_bytes()),
              static_cast<double>(live)));
  }
  const auto [lo, hi] = std::minmax_element(w_mops.begin(), w_mops.end());
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "window Mops: min %.4f median %.4f max %.4f (%zu windows)", *lo,
                median(w_mops), *hi, w_mops.size());
  r.notes.push_back(buf);

  // Ops per wall second of all windows (the oracle check included, the
  // per-window percentiles and the set-ups not): steadier than the median
  // window on a host whose speed drifts.
  const double mops = ratio(static_cast<double>(ops), wall_s) * 1e-6;
  const std::string windows = std::to_string(w_mops.size()) + " windows, ";
  r.add_named("native_mops", mops, "Mops", ops, "ops");
  r.add_named("native_p50_ns", median(w_p50), "ns", ops, windows + "calls");
  r.add_named("native_p999_ns", median(w_p999), "ns", ops, windows + "calls");
  r.add_named("bytes_per_key", median(bpk), "B/key", bpk.size(), "stores");
  r.add_named("fail_frac",
              ratio(static_cast<double>(wrong), static_cast<double>(ops)),
              "ratio", ops, "ops");
  r.add_named("setup_s", median(setups), "s", setups.size(), "set-ups");
  r.add_e2e("throughput_mops", mops, ops, "ops");
  r.add_e2e("latency_p50_ns", median(w_p50), ops, windows + "calls");
  r.add_e2e("latency_p999_ns", median(w_p999), ops, windows + "calls");
  r.add_e2e("host_ns_per_op",
            ratio(static_cast<double>(busy), static_cast<double>(ops)), ops,
            "ops");
  r.add_e2e("bytes_per_key", median(bpk), bpk.size(), "stores");
  r.add_e2e("setup_s", median(setups), setups.size(), "set-ups");
  r.add_layer("workload.gen_setup_s", gen_setup_s, 1, "cold set-up");
}

/// Traced run: pairs of phases, each on a fresh store, the first untraced
/// and the second with spans; per-layer metrics come from the traced phases
/// and the tracing overhead from the ratio of their ns per op.
void measure_traced(const Options& opt, const euno::workload::WorkloadSpec& w,
                    euno::ctx::NativeEnv& env, Report& r) {
  const std::uint64_t phase_ops = opt.quick ? 5000 : kPhaseOps;
  std::vector<double> untraced_ns, traced_ns;
  SpanStats spans;
  euno::htm::TxStats tx;
  std::uint64_t ops = 0, puts = 0, retired = 0, unfreed = 0, live = 0;
  double gen_setup_s = 0, suffix_bytes = 0, reserved = 0, ccm = 0;
  const auto t0 = Clock::now();
  for (int pair = 0; pair == 0 || seconds_since(t0) < opt.seconds; ++pair) {
    for (int traced = 0; traced < 2; ++traced) {
      std::vector<SpanLog> logs;
      if (traced != 0) logs.emplace_back(phase_ops * SpanLog::kMaxSpansPerOp);
      UrlStore s(w, env, traced != 0 ? &logs : nullptr);
      if (pair == 0 && traced == 0) {
        gen_setup_s = s.gen_setup_s();
        add_digest(s, r);
      }
      std::uint64_t busy = 0;
      SpanLog* log = traced != 0 ? &logs[0] : nullptr;
      for (std::uint64_t i = 0; i < phase_ops; ++i) (void)s.run_op(log, i, &busy);
      const double ns = ratio(static_cast<double>(busy),
                              static_cast<double>(phase_ops));
      s.final_check(r);
      r.attempted += s.ops();
      if (traced == 0) {
        untraced_ns.push_back(ns);
        continue;
      }
      traced_ns.push_back(ns);
      spans.add(logs[0].spans());
      if (pair == 0 && !opt.spans_path.empty()) {
        r.check(write_spans(opt.spans_path, logs, "ns"),
                "writing spans to " + opt.spans_path);
      }
      tx += s.client_stats().total();
      ops += s.ops();
      puts += s.puts();
      retired += s.retired() - s.retired_at_start();
      unfreed += s.retired() - s.freed();
      live += s.live_keys();
      auto& ms = euno::MemStats::instance();
      suffix_bytes +=
          static_cast<double>(ms.snapshot(euno::MemClass::kBytesBox).live_bytes);
      reserved += static_cast<double>(
          ms.snapshot(euno::MemClass::kReservedKeys).live_bytes);
      ccm += static_cast<double>(ms.snapshot(euno::MemClass::kCCM).live_bytes);
    }
  }
  const auto phases = static_cast<double>(traced_ns.size());
  const auto dops = static_cast<double>(ops);
  auto per_op = [&](const char* name, std::uint64_t v) {
    r.add_layer(name, ratio(static_cast<double>(v), dops), ops, "traced ops");
  };
  auto mean_of = [&](const char* name, SpanName n) {
    r.add_layer(name, mean(spans.dur[n]), spans.dur[n].size(),
                std::string(span_name(n)) + " spans");
  };
  auto pct = [&](const char* name, SpanName n, double q) {
    auto& v = spans.dur[n];
    r.add_layer(name, static_cast<double>(quantile(v, q)), v.size(),
                std::string(span_name(n)) + " spans");
  };
  mean_of("workload.next_ns", kSpanNext);
  mean_of("workload.key_of_ns", kSpanKeyOf);
  mean_of("workload.payload_of_ns", kSpanPayloadOf);
  r.add_layer("workload.gen_setup_s", gen_setup_s, 1, "cold set-up");
  per_op("ctx.attempts_per_op", tx.attempts);
  r.add_layer("ctx.commit_ratio",
              ratio(static_cast<double>(tx.commits),
                    static_cast<double>(tx.attempts)),
              tx.attempts, "attempts");
  per_op("ctx.fallbacks_per_op", tx.fallbacks);
  // NativeCtx counts lock waits in poll iterations, not cycles.
  per_op("ctx.lock_wait_polls_per_op", tx.lock_wait_cycles);
  pct("trees.get_ns_p50", kSpanTreeGet, 0.5);
  pct("trees.get_ns_p999", kSpanTreeGet, 0.999);
  pct("trees.put_ns_p50", kSpanTreePut, 0.5);
  pct("trees.put_ns_p999", kSpanTreePut, 0.999);
  pct("trees.scan_ns_p50", kSpanTreeScan, 0.5);
  pct("trees.scan_ns_p999", kSpanTreeScan, 0.999);
  r.add_layer("store.self_ns_p50",
              static_cast<double>(quantile(spans.store_self, 0.5)),
              spans.store_self.size(), "execute spans");
  r.add_layer("keys.suffix_bytes_per_key",
              ratio(suffix_bytes, static_cast<double>(live)), live,
              "live keys (all traced phases)");
  r.add_layer("keys.boxes_retired_per_put",
              ratio(static_cast<double>(retired), static_cast<double>(puts)),
              puts, "traced puts");
  r.add_layer("keys.boxes_unfreed", static_cast<double>(unfreed) / phases,
              traced_ns.size(), "traced phases (mean)");
  r.add_layer("mem.reserved_bytes", reserved / phases, traced_ns.size(),
              "traced phases (mean)");
  r.add_layer("mem.ccm_bytes", ccm / phases, traced_ns.size(),
              "traced phases (mean)");
  r.add_layer("trace.ops", static_cast<double>(spans.ops), spans.ops, "ops");
  r.add_layer("trace.spans", static_cast<double>(spans.spans), spans.spans,
              "spans");
  r.add_layer("trace.host_overhead_frac",
              ratio(median(traced_ns), median(untraced_ns)) - 1,
              traced_ns.size(), "phase pairs");
  r.add_layer("trace.sim_mismatches", 0, 0, "no simulated metrics");
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "phase ns/op: untraced median %.1f, traced median %.1f "
                "(%zu pairs of %" PRIu64 " ops)",
                median(untraced_ns), median(traced_ns), traced_ns.size(),
                phase_ops);
  r.notes.push_back(buf);
}

}  // namespace

void run_native_url_store(const Options& opt, Report& r) {
  const euno::workload::WorkloadSpec w = url_spec(opt.seed, opt.quick);
  euno::ctx::NativeEnv env(64);
  if (opt.trace) {
    measure_traced(opt, w, env, r);
  } else {
    measure(opt, w, env, r);
  }
}

}  // namespace perfbench
