// xvubench: the repository's benchmark binary. Runs one named workload
// against libxvu's public API for a fixed number of seconds, checks the
// outputs, and prints one JSON object (metrics with sample counts,
// outcome counts, provenance) as the last line of stdout. run.py builds
// this binary, adds the trace-derived metrics and units, and prints the
// report; see README.md in this directory.
//
//   xvubench --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-out FILE]
//
// With --trace 1 the workload runs twice on fresh systems: untraced (all
// measured metrics) and then with tracing on, whose Chrome trace goes to
// FILE and whose median write latency gives trace.overhead_share.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "src/obs/trace.h"
#include "xvubench/src/common.h"

#ifndef XVUBENCH_BUILD_TYPE
#define XVUBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define XVUBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                    \
    __has_feature(undefined_behavior_sanitizer)
#define XVUBENCH_SANITIZED 1
#endif
#endif

namespace xvubench {
namespace {

struct WorkloadDef {
  const char* name;
  PhaseResult (*run)(const Phase&);
  size_t threads;         ///< threads the workload keeps busy
  size_t worker_threads;  ///< UpdateSystem::Options::worker_threads
  size_t num_c;
  const char* shape;
};

const WorkloadDef kWorkloads[] = {
    {"batch_insert", RunBatchInsert, 2, 2, 20000,
     "closed loop, 1 client, ApplyBatch of N=50 sub insertions, "
     "8 hot parents"},
    {"single_op_mixed", RunSingleOpMixed, 1, 1, 20000,
     "closed loop, 1 client, W1/W2/W3 insert/delete interleave, "
     "every 8th op a one-tuple H delete or re-insert"},
    {"snapshot_read", RunSnapshotRead, 3, 1, 5000,
     "open loop, 1 writer at 1 commit/s, 2 readers at 20 reads/s each"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CompilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "xvubench: %s\nusage: xvubench --workload "
               "batch_insert|single_op_mixed|snapshot_read --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

[[noreturn]] void Refuse(const std::string& why) {
  std::fprintf(stderr, "xvubench: refusing to run: %s\n", why.c_str());
  std::exit(3);
}

int Main(int argc, char** argv) {
  std::string workload, trace_out = "xvubench_trace.json";
  Phase phase;
  bool trace = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      phase.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      phase.seconds = std::atof(value);
      have_seconds = phase.seconds > 0;
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (workload == w.name) def = &w;
  }
  if (def == nullptr) Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds) Usage("--seed and --seconds are required");
  phase.worker_threads = def->worker_threads;

  // Provenance gates: numbers only from an optimized, uninstrumented
  // build, and never with more busy threads than cores.
  const std::string build_type = XVUBENCH_BUILD_TYPE;
  if (build_type != "Release") Refuse("build type is " + build_type);
#ifndef NDEBUG
  Refuse("assertions are enabled (NDEBUG unset)");
#endif
#ifdef XVUBENCH_SANITIZED
  Refuse("sanitizer build");
#endif
  const size_t nproc = std::thread::hardware_concurrency();
  if (def->threads > nproc) {
    Refuse(std::string(def->name) + " needs " + std::to_string(def->threads) +
           " threads, nproc is " + std::to_string(nproc));
  }

  // A traced run reports only per-layer metrics, so it skips the set-up
  // repeats that setup_s needs.
  if (trace) phase.setup_repeats = 1;
  std::fprintf(stderr, "xvubench: %s seed=%llu seconds=%g (untraced)\n",
               def->name, static_cast<unsigned long long>(phase.seed),
               phase.seconds);
  PhaseResult result = def->run(phase);
  MetricSink metrics = result.metrics;
  size_t attempted = result.attempted, failed = result.failed;
  size_t rejected = result.rejected, errored = result.errored;
  bool correct = result.gate_ok && result.failed == 0;
  std::vector<std::string> errors = result.errors;

  if (trace) {
    std::fprintf(stderr, "xvubench: %s seed=%llu seconds=%g (traced)\n",
                 def->name, static_cast<unsigned long long>(phase.seed),
                 phase.seconds);
    xvu::obs::TraceClear();
    Phase traced = phase;
    traced.traced = true;
    PhaseResult tr = def->run(traced);
    std::ofstream(trace_out) << xvu::obs::ExportChromeTrace();
    // A phase that failed before its window reports no metrics.
    const auto untraced = result.metrics.all().find("write_p50_ms");
    const auto traced_p50 = tr.metrics.all().find("write_p50_ms");
    if (untraced != result.metrics.all().end() &&
        traced_p50 != tr.metrics.all().end()) {
      metrics.Ratio("trace.overhead_share",
                    traced_p50->second.value - untraced->second.value,
                    untraced->second.value, traced_p50->second.samples);
    }
    attempted += tr.attempted;
    failed += tr.failed;
    rejected += tr.rejected;
    errored += tr.errored;
    correct = correct && tr.gate_ok && tr.failed == 0;
    errors.insert(errors.end(), tr.errors.begin(), tr.errors.end());
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "xvubench: FAIL %s\n", e.c_str());
  }

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"rejected\": " + std::to_string(rejected);
  out += ", \"errored\": " + std::to_string(errored);
  out += ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    out += (i ? ", " : "") + JsonString(errors[i]);
  }
  out += "], \"provenance\": {";
  out += "\"workload\": " + JsonString(def->name);
  out += ", \"seed\": " + std::to_string(phase.seed);
  out += ", \"seconds\": " + JsonNumber(phase.seconds);
  out += ", \"nproc\": " + std::to_string(nproc);
  out += ", \"threads\": " + std::to_string(def->threads);
  out += ", \"worker_threads\": " + std::to_string(def->worker_threads);
  out += ", \"compiler\": " + JsonString(CompilerId());
  out += ", \"build_type\": " + JsonString(build_type);
  out += ", \"num_c\": " + std::to_string(def->num_c);
  out += ", \"shape\": " + JsonString(def->shape);
  out += "}, \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics.all()) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           JsonNumber(m.value) + ", \"samples\": " + std::to_string(m.samples) +
           "}";
    first = false;
  }
  out += "}";
  if (trace) out += ", \"trace_file\": " + JsonString(trace_out);
  out += "}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace xvubench

int main(int argc, char** argv) { return xvubench::Main(argc, argv); }
