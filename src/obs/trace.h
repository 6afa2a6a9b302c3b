#ifndef XVU_OBS_TRACE_H_
#define XVU_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace xvu {
namespace obs {

/// Tracing switch. Off by default (opt-in via ObsConfig): the span and
/// instant sites compiled into the pipeline then cost one relaxed atomic
/// load each, the same budget as metrics sites and disarmed fail points.
bool TracingEnabled();
void SetTracingEnabled(bool on);

/// Per-thread trace event ring capacity (events, not bytes). Applies to
/// rings created after the call; existing rings keep their size.
void SetTraceRingCapacity(size_t events);

/// One fixed-size trace event in a per-thread ring. `name` and the arg
/// keys/values of string kind must be string literals or pointers
/// interned via TraceInterned() — the ring stores the pointer, never the
/// bytes.
struct TraceEvent {
  const char* name = nullptr;
  uint64_t ts_ns = 0;   ///< since the process trace epoch
  uint64_t dur_ns = 0;  ///< 0 for instants
  uint32_t tid = 0;     ///< small dense id assigned per recording thread
  char phase = 'X';     ///< 'X' complete span, 'i' instant
  const char* arg_name = nullptr;  ///< optional numeric arg
  uint64_t arg_value = 0;
  const char* sarg_name = nullptr;  ///< optional string arg
  const char* sarg_value = nullptr;
};

/// Nanoseconds since the process-wide trace epoch (first use).
uint64_t TraceNowNs();

/// Interns a dynamic string (lane labels, fail-point site names) into
/// process-lifetime storage, returning a pointer stable for the rest of
/// the process. Idempotent per distinct content; mutex-guarded — call
/// from slow paths only.
const char* TraceInterned(const std::string& s);

/// Appends a complete ('X') event for [start_ns, start_ns + dur_ns) to
/// the calling thread's ring.
void TraceComplete(const char* name, uint64_t start_ns, uint64_t dur_ns,
                   const char* arg_name = nullptr, uint64_t arg_value = 0,
                   const char* sarg_name = nullptr,
                   const char* sarg_value = nullptr);

/// Appends an instant ('i') event at now. Used for fail-point firings,
/// deadline expiries.
void TraceInstant(const char* name, const char* arg_name = nullptr,
                  uint64_t arg_value = 0, const char* sarg_name = nullptr,
                  const char* sarg_value = nullptr);

/// Drops every buffered event in every ring (thread ids persist). Test
/// and capture-tool measurement boundary.
void TraceClear();

/// Number of events currently buffered across all rings (post-wraparound
/// survivors only).
size_t TraceEventCount();

/// Drains every thread's ring into Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` object form), events sorted by timestamp —
/// loadable in chrome://tracing and Perfetto. Buffers are left intact
/// (call TraceClear() to reset). Safe to call while other threads trace:
/// each ring is briefly locked while copied out.
std::string ExportChromeTrace();

/// RAII span: records a complete event covering construction to
/// destruction on the calling thread. When tracing is disabled at
/// construction the destructor does nothing (one relaxed load total).
/// Args attach lazily so they can carry results computed inside the
/// span.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (TracingEnabled()) {
      name_ = name;
      start_ns_ = TraceNowNs();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      TraceComplete(name_, start_ns_, TraceNowNs() - start_ns_, arg_name_,
                    arg_value_, sarg_name_, sarg_value_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric arg ("ops": 100). Last call wins.
  void Arg(const char* name, uint64_t value) {
    arg_name_ = name;
    arg_value_ = value;
  }
  /// Attaches a string arg ("strategy": "incremental-merge"). The value
  /// must be a literal or interned pointer. Last call wins.
  void StrArg(const char* name, const char* value) {
    sarg_name_ = name;
    sarg_value_ = value;
  }

 private:
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
  const char* arg_name_ = nullptr;
  uint64_t arg_value_ = 0;
  const char* sarg_name_ = nullptr;
  const char* sarg_value_ = nullptr;
};

}  // namespace obs
}  // namespace xvu

#endif  // XVU_OBS_TRACE_H_
