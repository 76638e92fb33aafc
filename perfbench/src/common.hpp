// Shared pieces of the repository benchmark: run options, the metric report,
// small statistics helpers, and the span recorder with the decorating trees
// that place spans around every call into the tree layer.
//
// Everything here lives outside src/: the benchmark drives the library only
// through its public functions (registry factories, ShardedStore, the
// simulator, the workload generators, ctx stats and MemStats).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trees/registry.hpp"
#include "util/hash.hpp"
#include "workload/ycsb.hpp"

namespace perfbench {

using euno::trees::AnyStrTree;
using euno::trees::AnyTree;
using euno::trees::Key;
using euno::trees::KV;
using euno::trees::Value;
using euno::trees::node::BytesView;
using euno::trees::node::StrEmitFn;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small sizes for the self-test; the measured configuration never sets it.
  bool quick = false;
  /// Where a traced run writes its spans (CSV).
  std::string spans_path;
};

// ---- report -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t base = 0;  // sample count or the denominator of a ratio
  std::string base_what;   // what `base` counts
};

/// Metrics and output checks of one benchmark run. `named` holds the
/// workload's own end-to-end metrics, `e2e` the BENCHMARK.json end-to-end
/// values and `layer` the per-layer values (both keyed by the names main.cpp
/// lists).
struct Report {
  std::vector<Metric> named;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> problems;  // failed output checks
  std::vector<std::string> notes;     // informational lines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // ops whose result was wrong

  void add_named(std::string name, double value, std::string unit,
                 std::uint64_t base, std::string what) {
    named.push_back(
        {std::move(name), value, std::move(unit), base, std::move(what)});
  }
  void add_e2e(std::string name, double value, std::uint64_t base,
               std::string what) {
    e2e.push_back({std::move(name), value, "", base, std::move(what)});
  }
  void add_layer(std::string name, double value, std::uint64_t base,
                 std::string what) {
    layer.push_back({std::move(name), value, "", base, std::move(what)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

// ---- statistics ---------------------------------------------------------

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile (reorders `v`).
template <class T>
T quantile(std::vector<T>& v, double q) {
  if (v.empty()) return T{};
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

template <class T>
double mean(const std::vector<T>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const T& x : v) s += static_cast<double>(x);
  return s / static_cast<double>(v.size());
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Digest of the first `n` ops a stream yields: lets the self-test show that
/// the seed argument reaches the generators.
template <class Stream>
std::uint64_t opstream_digest(Stream s, int n) {
  std::uint64_t h = 0x5eedull;
  for (int i = 0; i < n; ++i) {
    const euno::workload::Op op = s.next();
    h = euno::mix64(h ^ op.key ^ (static_cast<std::uint64_t>(op.type) << 60) ^
                    euno::mix64(op.value));
  }
  return h;
}

// ---- spans --------------------------------------------------------------

/// Span names: one per layer boundary the benchmark's loops cross.
enum SpanName : std::uint8_t {
  kSpanOp = 0,        // one workload op, issue to completion
  kSpanNext,          // workload: OpStream::next
  kSpanKeyOf,         // workload: StringKeySpace::key_of
  kSpanPayloadOf,     // workload: StringKeySpace::payload_of
  kSpanStoreExecute,  // store: ShardedStore::execute / execute_str
  kSpanTreeGet,       // trees: AnyTree/AnyStrTree::get
  kSpanTreePut,
  kSpanTreeScan,
  kSpanTreeErase,
  kSpanNames,
};

inline const char* span_name(int n) {
  static const char* const kNames[kSpanNames] = {
      "op",         "workload.next", "workload.key_of",
      "workload.payload_of", "store.execute", "trees.get",
      "trees.put",  "trees.scan",    "trees.erase"};
  return kNames[n];
}

struct Span {
  std::uint64_t op = 0;     // op id, shared by every span of one op
  std::uint64_t start = 0;  // ctx clock: simulated cycles or TSC ns
  std::uint64_t end = 0;
  std::uint32_t parent = 0;  // index into the same log, or kNoSpan
  std::uint8_t name = 0;
};

inline constexpr std::uint32_t kNoSpan = ~0u;

/// In-memory span log of one client (one simulated core or native thread).
/// Recording is live only between begin_op and end_op, so set-up and check
/// calls that pass through a decorated tree record nothing; an op starts
/// recording only if all its spans fit under the capacity.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpansPerOp = 8;

  explicit SpanLog(std::size_t capacity = 0) : cap_(capacity) {
    spans_.reserve(std::min<std::size_t>(capacity, 1u << 16));
  }

  void begin_op(std::uint64_t id) {
    op_ = id;
    on_ = spans_.size() + kMaxSpansPerOp <= cap_;
    stack_.clear();
  }
  void end_op() { on_ = false; }

  std::uint32_t open(std::uint8_t name, std::uint64_t t) {
    if (!on_) return kNoSpan;
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(
        Span{op_, t, t, stack_.empty() ? kNoSpan : stack_.back(), name});
    stack_.push_back(idx);
    return idx;
  }
  void close(std::uint32_t idx, std::uint64_t t) {
    if (idx == kNoSpan) return;
    spans_[idx].end = t;
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t op_ = 0;
  bool on_ = false;
};

/// RAII span over the clock of context `c` (c.now(): simulated cycles under
/// SimCtx, calibrated-TSC nanoseconds under NativeCtx). Closing reads the
/// clock only, so it is safe while a DeadlineExceeded unwinds.
template <class Ctx>
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Ctx& c, std::uint8_t name)
      : log_(log), c_(c), idx_(log != nullptr ? log->open(name, c.now()) : kNoSpan) {}
  ~ScopedSpan() {
    if (idx_ != kNoSpan) log_->close(idx_, c_.now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Ctx& c_;
  std::uint32_t idx_;
};

/// Per-layer samples derived from span logs: durations per span name and the
/// self time of store.execute (its duration minus its tree child's).
struct SpanStats {
  std::vector<std::uint64_t> dur[kSpanNames];
  std::vector<std::uint64_t> store_self;
  std::uint64_t spans = 0;
  std::uint64_t ops = 0;

  void add(const std::vector<Span>& log) {
    std::vector<std::uint64_t> child(log.size(), 0);
    for (const Span& s : log) {
      if (s.parent != kNoSpan) child[s.parent] += s.end - s.start;
    }
    for (std::size_t i = 0; i < log.size(); ++i) {
      const Span& s = log[i];
      const std::uint64_t d = s.end - s.start;
      dur[s.name].push_back(d);
      if (s.name == kSpanStoreExecute) store_self.push_back(d - child[i]);
      if (s.name == kSpanOp) ops++;
    }
    spans += log.size();
  }
};

/// Writes span logs as CSV (one row per span). Returns false on I/O failure.
bool write_spans(const std::string& path, const std::vector<SpanLog>& logs,
                 const char* clock_unit);

/// Tree decorator that records a span around every AnyTree call. Handed to
/// the registry/store factories only in traced runs; the virtual hop is
/// host-side, so simulated results are unchanged.
template <class Ctx>
class TracedTree final : public AnyTree<Ctx> {
 public:
  TracedTree(std::unique_ptr<AnyTree<Ctx>> inner, std::vector<SpanLog>* logs)
      : inner_(std::move(inner)), logs_(logs) {}

  bool get(Ctx& c, Key k, Value* v) override {
    ScopedSpan<Ctx> s(log(c), c, kSpanTreeGet);
    return inner_->get(c, k, v);
  }
  void put(Ctx& c, Key k, Value v) override {
    ScopedSpan<Ctx> s(log(c), c, kSpanTreePut);
    inner_->put(c, k, v);
  }
  bool erase(Ctx& c, Key k) override {
    ScopedSpan<Ctx> s(log(c), c, kSpanTreeErase);
    return inner_->erase(c, k);
  }
  std::size_t scan(Ctx& c, Key start, std::size_t n, KV* out) override {
    ScopedSpan<Ctx> s(log(c), c, kSpanTreeScan);
    return inner_->scan(c, start, n, out);
  }
  void check_invariants() override { inner_->check_invariants(); }
  std::size_t size_slow() override { return inner_->size_slow(); }
  void destroy(Ctx& c) override { inner_->destroy(c); }

 private:
  SpanLog* log(Ctx& c) { return &(*logs_)[static_cast<std::size_t>(c.tid())]; }

  std::unique_ptr<AnyTree<Ctx>> inner_;
  std::vector<SpanLog>* logs_;
};

/// Bytes-domain twin of TracedTree.
template <class Ctx>
class TracedStrTree final : public AnyStrTree<Ctx> {
 public:
  TracedStrTree(std::unique_ptr<AnyStrTree<Ctx>> inner,
                std::vector<SpanLog>* logs)
      : inner_(std::move(inner)), logs_(logs) {}

  bool get(Ctx& c, BytesView key, Value* v) override {
    ScopedSpan<Ctx> s(log(c), c, kSpanTreeGet);
    return inner_->get(c, key, v);
  }
  void put(Ctx& c, BytesView key, Value v, BytesView payload) override {
    ScopedSpan<Ctx> s(log(c), c, kSpanTreePut);
    inner_->put(c, key, v, payload);
  }
  bool erase(Ctx& c, BytesView key) override {
    ScopedSpan<Ctx> s(log(c), c, kSpanTreeErase);
    return inner_->erase(c, key);
  }
  std::size_t scan(Ctx& c, BytesView start, std::size_t n,
                   const StrEmitFn& emit) override {
    ScopedSpan<Ctx> s(log(c), c, kSpanTreeScan);
    return inner_->scan(c, start, n, emit);
  }
  void check_invariants() override { inner_->check_invariants(); }
  std::size_t size_slow() override { return inner_->size_slow(); }
  std::uint64_t retired_boxes() override { return inner_->retired_boxes(); }
  std::uint64_t freed_boxes() override { return inner_->freed_boxes(); }
  void destroy(Ctx& c) override { inner_->destroy(c); }

 private:
  SpanLog* log(Ctx& c) { return &(*logs_)[static_cast<std::size_t>(c.tid())]; }

  std::unique_ptr<AnyStrTree<Ctx>> inner_;
  std::vector<SpanLog>* logs_;
};

// ---- workloads ------------------------------------------------------------

void run_sim_hot(const Options& opt, Report& r);
void run_sim_store_load(const Options& opt, Report& r);
void run_native_url_store(const Options& opt, Report& r);

}  // namespace perfbench
