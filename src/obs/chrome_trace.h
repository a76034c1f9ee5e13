#ifndef ADAMANT_OBS_CHROME_TRACE_H_
#define ADAMANT_OBS_CHROME_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace adamant::obs {

/// Tracks at or above kSimTrackBase hold simulated-clock timelines and
/// export under their own process (pid 1, "simulated clock"), so a viewer
/// never lines simulated microseconds up against wall-clock spans.
inline constexpr int kSimTrackBase = 1000;

/// The Chrome Trace Event serializer (chrome://tracing / Perfetto) behind
/// TraceRecorder::ExportChromeJson.
///
/// Wall-clock tracks export under pid 0, simulated-clock tracks under
/// pid 1; each `track` becomes a thread with an "M" thread_name metadata
/// event followed by its "X" (complete) and "i" (instant) events sorted by
/// timestamp — Perfetto requires non-decreasing timestamps per track, which
/// the sort guarantees regardless of the order events were recorded in.
class ChromeTraceBuilder {
 public:
  /// Names the track (thread) in the viewer. Unnamed tracks fall back to
  /// "track <id>".
  void SetTrackName(int track, const std::string& name);

  /// "X" complete event: [ts_us, ts_us + dur_us] on `track`. `args_json`,
  /// when non-empty, must be a complete JSON object (e.g. {"bytes":42})
  /// and is emitted verbatim as the event's args.
  void AddComplete(int track, double ts_us, double dur_us,
                   const std::string& name, const std::string& args_json = "");

  /// "i" instant event (thread scope) at ts_us on `track`.
  void AddInstant(int track, double ts_us, const std::string& name,
                  const std::string& args_json = "");

  /// "C" counter event at ts_us on `track`. `args_json` must be a JSON
  /// object of numeric series values ({"completed":12}); viewers plot each
  /// key as a stacked series, and trace_check enforces per-series
  /// monotonicity for counters named like totals.
  void AddCounter(int track, double ts_us, const std::string& name,
                  const std::string& args_json);

  size_t event_count() const { return events_.size(); }

  /// Serializes {"displayTimeUnit":"ms","traceEvents":[...]} with events
  /// grouped per track and sorted by timestamp within each track.
  std::string ToJson() const;

 private:
  struct Event {
    int track = 0;
    char phase = 'X';  // 'X' complete | 'i' instant | 'C' counter
    double ts = 0;
    double dur = 0;
    std::string name;
    std::string args;
  };

  std::map<int, std::string> track_names_;
  std::vector<Event> events_;
};

/// Escapes `"` and `\` for embedding in a JSON string literal.
std::string JsonEscape(const std::string& text);

}  // namespace adamant::obs

#endif  // ADAMANT_OBS_CHROME_TRACE_H_
