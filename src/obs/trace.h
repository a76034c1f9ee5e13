#ifndef ADAMANT_OBS_TRACE_H_
#define ADAMANT_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/chrome_trace.h"

namespace adamant::obs {

/// Track ids: device events record on the DeviceId itself (0..N-1); the
/// reserved tracks below hold host-side and service-layer events. Keeping
/// them far above any plausible device count means a plugged device can
/// never collide with a reserved track.
inline constexpr int kHostTrack = 900;
inline constexpr int kServiceTrack = 901;
/// Worker-pool tracks: worker i of the Task-layer WorkerPool records its
/// `tile:*` spans on kPoolTrackBase + i; the thread that submitted the
/// parallel region (and participates in it) records on kPoolCallerTrack.
inline constexpr int kPoolTrackBase = 910;
inline constexpr int kPoolCallerTrack = 926;
/// Simulated-clock tracks (kSimTrackBase and up, exported as their own
/// process): each traced run records one `run:<n>` span on kSimTrackBase
/// and device d's h2d/d2h/compute engine bookings on SimEngineTrack(d) +
/// {0, 1, 2}. Timestamps are simulated microseconds, each run in its own
/// window (ClaimSimulatedWindow).
inline int SimEngineTrack(int device) { return kSimTrackBase + 1 + 3 * device; }

/// The disabled-path guard: one relaxed atomic load and a branch, inlinable
/// at every instrumentation site. All Record*/TraceSpan entry points check
/// it again internally, so an unguarded call is correct — just one function
/// call slower.
extern std::atomic<bool> g_tracing_enabled;
inline bool TracingEnabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Process-wide trace recorder: wall-clock (steady_clock) spans and instant
/// events on per-thread buffers, exported as Chrome Trace Event JSON via
/// the shared ChromeTraceBuilder.
///
/// Thread safety: each thread appends to its own buffer under that buffer's
/// mutex (uncontended in steady state — only export takes it from another
/// thread), so recording scales across the device-parallel partition
/// threads and the service workers without a global lock. Buffers outlive
/// their threads (the registry holds shared ownership), so spans recorded
/// by a joined partition thread still export.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  /// Clears prior events and track names, restarts the time epoch, and
  /// turns recording on.
  void Enable();
  void Disable();
  bool enabled() const { return TracingEnabled(); }

  /// Microseconds since Enable().
  uint64_t NowUs() const;

  /// Names a track in the exported trace (e.g. a device's name) until the
  /// next Enable(). Safe to call whether or not recording is enabled.
  void SetTrackName(int track, const std::string& name);

  void RecordComplete(int track, double start_us, double dur_us,
                      std::string name, std::string args_json = std::string());
  void RecordInstant(int track, std::string name,
                     std::string args_json = std::string());
  /// Counter ("C") sample: `args_json` must be a JSON object of numeric
  /// series values, e.g. {"completed":12}. Emit samples of one series from
  /// a single thread (or under one lock) so per-track timestamps give a
  /// well-defined series order.
  void RecordCounter(int track, std::string name, std::string args_json);

  /// Reserves the next `length_us` of the simulated-clock time axis for one
  /// run, so consecutive runs never overlap there; returns the window's
  /// start and its sequence number (`run`). Enable() rewinds to 0.
  struct SimWindow {
    double start_us = 0;
    size_t run = 0;
  };
  SimWindow ClaimSimulatedWindow(double length_us);

  /// Chrome Trace Event JSON of everything recorded since Enable().
  std::string ExportChromeJson();

  /// Drops all recorded events (Enable() also clears).
  void Clear();

  size_t TotalEvents();
  size_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Per-thread buffer bound: long soaks stop recording (and count drops)
  /// rather than exhaust memory, mirroring ResourceTimeline::kMaxTraceEntries.
  static constexpr size_t kMaxEventsPerThread = size_t{1} << 18;

 private:
  struct Event {
    int track = 0;
    char phase = 'X';  // 'X' complete | 'i' instant | 'C' counter
    double ts = 0;
    double dur = 0;
    std::string name;
    std::string args;
  };
  struct ThreadBuffer {
    std::mutex mu;
    std::vector<Event> events;
  };

  TraceRecorder() = default;
  ThreadBuffer* LocalBuffer();
  void Append(Event event);

  std::atomic<int64_t> epoch_ns_{0};
  std::atomic<size_t> dropped_{0};
  std::mutex registry_mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::map<int, std::string> track_names_;
  SimWindow next_sim_window_;  // guarded by registry_mu_
};

/// RAII span: declare unconditionally, Start() behind the TracingEnabled()
/// guard, and the destructor records the complete event:
///
///   obs::TraceSpan span;
///   if (obs::TracingEnabled()) span.Start(device, "h2d");
///   ... work ...
///   // span closes here (or call End() explicitly / set_args first)
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { End(); }

  void Start(int track, std::string name) {
    track_ = track;
    name_ = std::move(name);
    start_ = TraceRecorder::Global().NowUs();
    active_ = true;
  }

  /// Attaches args (a complete JSON object) to the event recorded at End().
  void set_args(std::string args_json) { args_ = std::move(args_json); }

  void End();

 private:
  bool active_ = false;
  int track_ = 0;
  uint64_t start_ = 0;
  std::string name_;
  std::string args_;
};

/// Instant-event shorthand, guarded internally.
inline void TraceInstant(int track, std::string name,
                         std::string args_json = std::string()) {
  if (!TracingEnabled()) return;
  TraceRecorder::Global().RecordInstant(track, std::move(name),
                                        std::move(args_json));
}

/// Counter-event shorthand, guarded internally. Same series discipline as
/// TraceRecorder::RecordCounter: sample one series from one thread / lock.
inline void TraceCounter(int track, std::string name, std::string args_json) {
  if (!TracingEnabled()) return;
  TraceRecorder::Global().RecordCounter(track, std::move(name),
                                        std::move(args_json));
}

}  // namespace adamant::obs

#endif  // ADAMANT_OBS_TRACE_H_
