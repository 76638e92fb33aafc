// perfbench: the repository benchmark (see ../README.md).
//
//   perfbench --workload <sim-hot|sim-store-load|native-url-store>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>] [--source <id>] [--quick]
//
// Prints a host record, every metric of the workload by name with its unit
// and base count, the output-check results, and as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The metrics object
// holds the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1), under the names BENCHMARK.json lists. Exits 1 when
// an output check fails, 2 on a usage error.
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "htm/rtm.hpp"
#include "trees/node/simd_search.hpp"
#include "util/tsc.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

bool write_spans(const std::string& path, const std::vector<SpanLog>& logs,
                 const char* clock_unit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# clock unit: %s\nclient,op,span,name,parent,start,end\n",
               clock_unit);
  for (std::size_t l = 0; l < logs.size(); ++l) {
    const auto& spans = logs[l].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%" PRIu64 ",%zu,%s,%" PRId64 ",%" PRIu64 ",%" PRIu64 "\n",
                   l, s.op, i, span_name(s.name),
                   s.parent == kNoSpan ? std::int64_t{-1}
                                       : static_cast<std::int64_t>(s.parent),
                   s.start, s.end);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics every workload reports (BENCHMARK.json end_to_end).
/// Each workload maps its own metrics onto them; see README.md.
constexpr MetricDef kEndToEnd[] = {
    {"throughput_mops", "Mops"}, {"latency_p50_ns", "ns"},
    {"latency_p999_ns", "ns"},   {"host_ns_per_op", "ns"},
    {"bytes_per_key", "B/key"},  {"setup_s", "s"},
};

/// Per-layer metrics of the traced run (BENCHMARK.json per_layer). A layer a
/// workload does not reach reports 0.
constexpr MetricDef kPerLayer[] = {
    {"workload.next_ns", "ns"},
    {"workload.key_of_ns", "ns"},
    {"workload.payload_of_ns", "ns"},
    {"workload.lateness_p999_us", "us"},
    {"workload.gen_setup_s", "s"},
    {"sim.host_ns_per_access", "ns"},
    {"sim.accesses_per_op", "count/op"},
    {"sim.instructions_per_op", "count/op"},
    {"ctx.attempts_per_op", "count/op"},
    {"ctx.commit_ratio", "ratio"},
    {"ctx.aborts_conflict_per_op", "count/op"},
    {"ctx.aborts_capacity_per_op", "count/op"},
    {"ctx.aborts_other_per_op", "count/op"},
    {"ctx.lock_subscription_aborts_per_op", "count/op"},
    {"ctx.fallbacks_per_op", "count/op"},
    {"ctx.lock_wait_cycles_per_op", "cycles/op"},
    {"ctx.lock_wait_polls_per_op", "count/op"},
    {"ctx.wasted_cycle_frac", "ratio"},
    {"sync.upper_aborts_per_op", "count/op"},
    {"sync.lower_aborts_per_op", "count/op"},
    {"sync.false_record_conflicts_per_op", "count/op"},
    {"sync.false_metadata_conflicts_per_op", "count/op"},
    {"sync.true_conflicts_per_op", "count/op"},
    {"trees.get_cycles_p50", "cycles"},
    {"trees.get_cycles_p999", "cycles"},
    {"trees.put_cycles_p50", "cycles"},
    {"trees.put_cycles_p999", "cycles"},
    {"trees.get_ns_p50", "ns"},
    {"trees.get_ns_p999", "ns"},
    {"trees.put_ns_p50", "ns"},
    {"trees.put_ns_p999", "ns"},
    {"trees.scan_ns_p50", "ns"},
    {"trees.scan_ns_p999", "ns"},
    {"keys.suffix_bytes_per_key", "B/key"},
    {"keys.boxes_retired_per_put", "count/op"},
    {"keys.boxes_unfreed", "count"},
    {"store.self_ns_p50", "ns"},
    {"store.self_cycles_p50", "cycles"},
    {"store.shed_frac", "ratio"},
    {"store.deadline_frac", "ratio"},
    {"store.degradations", "count"},
    {"mem.reserved_bytes", "B"},
    {"mem.ccm_bytes", "B"},
    {"trace.ops", "count"},
    {"trace.spans", "count"},
    {"trace.host_overhead_frac", "ratio"},
    {"trace.sim_mismatches", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<sim-hot|sim-store-load|native-url-store> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>] [--source <id>] "
               "[--quick]\n",
               why);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  if (*s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || *s == '-') return false;
  *out = v;
  return true;
}

Options parse(int argc, char** argv, std::string* source) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      o.quick = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, &o.seed)) usage("--seed takes a whole number");
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_u64(v, &n) || n < 1 || n > 3600) {
        usage("--seconds takes a whole number from 1 to 3600");
      }
      o.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      o.trace = v[0] == '1';
      have_trace = true;
    } else if (a == "--spans") {
      o.spans_path = v;
    } else if (a == "--source") {
      *source = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

void print_metric(const char* kind, const Metric& m, const char* unit,
                  const char* label) {
  std::printf("%s %s = %.10g %s  [n=%" PRIu64 " %s]%s\n", kind, m.name.c_str(),
              m.value, unit, m.base, m.base_what.c_str(), label);
}

void print_json_metrics(const std::vector<Metric>& ms, const MetricDef* defs,
                        std::size_t n) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0;
    for (const auto& m : ms) {
      if (m.name == defs[i].name && std::isfinite(m.value)) v = m.value;
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  std::string source = "unknown";
  const Options opt = parse(argc, argv, &source);
  void (*run)(const Options&, Report&) = nullptr;
  if (opt.workload == "sim-hot") {
    run = perfbench::run_sim_hot;
  } else if (opt.workload == "sim-store-load") {
    run = perfbench::run_sim_store_load;
  } else if (opt.workload == "native-url-store") {
    run = perfbench::run_native_url_store;
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }

  const bool rtm = euno::htm::rtm_supported();
  const bool native = opt.workload == "native-url-store";
  // Touch the clock first so the calibration is not inside a measurement.
  (void)euno::util::monotonic_ns();
  std::printf(
      "host {\"nproc\": %ld, \"rtm_supported\": %s, \"simd_kernel\": \"%s\", "
      "\"tsc_calibrated\": %s, \"tsc_ghz\": %.6f, \"source\": \"%s\", "
      "\"build_type\": \"%s\", \"native_path\": \"%s\"}\n",
      sysconf(_SC_NPROCESSORS_ONLN), rtm ? "true" : "false",
      euno::trees::node::simd::active_kernels().name,
      euno::util::tsc_calibrated() ? "true" : "false", euno::util::tsc_ghz(),
      source.c_str(), PERFBENCH_BUILD_TYPE,
      rtm ? "htm" : "lock-fallback (no RTM: every native op serializes on "
                    "the fallback lock)");
  std::printf("run workload=%s seed=%" PRIu64 " seconds=%g trace=%d%s\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0,
              opt.quick ? " quick" : "");
  std::fflush(stdout);

  Report r;
  run(opt, r);

  const char* label = native && !rtm ? "  (lock-fallback path, no RTM)" : "";
  for (const auto& n : r.notes) std::printf("note %s\n", n.c_str());
  for (const auto& m : r.named) {
    print_metric("metric", m, m.unit.c_str(), label);
  }
  for (const auto& d : kEndToEnd) {
    bool found = false;
    for (const auto& m : r.e2e) {
      if (m.name == d.name) {
        print_metric("e2e", m, d.unit, label);
        found = true;
      }
    }
    // The traced native run measures per-layer metrics only.
    r.check(found || opt.trace, std::string("workload did not report ") + d.name);
  }
  for (const auto& d : kPerLayer) {
    bool found = false;
    for (const auto& m : r.layer) {
      if (m.name == d.name) {
        print_metric("layer", m, d.unit, label);
        found = true;
      }
    }
    if (!found && opt.trace) {
      std::printf("layer %s = 0 %s  [not on this workload's path]\n", d.name,
                  d.unit);
    }
  }
  for (const auto& group : {r.named, r.e2e, r.layer}) {
    for (const auto& m : group) {
      r.check(std::isfinite(m.value), m.name + " is not finite");
    }
  }
  for (const auto& p : r.problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  const bool correct = r.problems.empty() && r.failed == 0 && r.attempted > 0;
  std::printf("checks %s\n", correct ? "passed" : "FAILED");

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", ",
              correct ? "true" : "false", r.attempted, r.failed);
  if (opt.trace) {
    print_json_metrics(r.layer, kPerLayer, std::size(kPerLayer));
  } else {
    print_json_metrics(r.e2e, kEndToEnd, std::size(kEndToEnd));
  }
  std::printf("}\n");
  return correct ? 0 : 1;
}
