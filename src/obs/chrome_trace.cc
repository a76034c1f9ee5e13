#include "obs/chrome_trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace adamant::obs {

namespace {

/// Timestamps are microseconds; integral values print without a decimal
/// point (the common case for both simulated times and steady_clock deltas)
/// so traces stay compact and byte-stable.
void AppendNumber(double value, std::ostringstream* out) {
  if (value == std::floor(value) && std::abs(value) < 9e15) {
    *out << static_cast<long long>(value);
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  *out << buf;
}

}  // namespace

std::string JsonEscape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') escaped.push_back('\\');
    escaped.push_back(c);
  }
  return escaped;
}

void ChromeTraceBuilder::SetTrackName(int track, const std::string& name) {
  track_names_[track] = name;
}

void ChromeTraceBuilder::AddComplete(int track, double ts_us, double dur_us,
                                     const std::string& name,
                                     const std::string& args_json) {
  Event event;
  event.track = track;
  event.ts = ts_us;
  event.dur = dur_us;
  event.name = name;
  event.args = args_json;
  events_.push_back(std::move(event));
}

void ChromeTraceBuilder::AddInstant(int track, double ts_us,
                                    const std::string& name,
                                    const std::string& args_json) {
  Event event;
  event.track = track;
  event.phase = 'i';
  event.ts = ts_us;
  event.name = name;
  event.args = args_json;
  events_.push_back(std::move(event));
}

void ChromeTraceBuilder::AddCounter(int track, double ts_us,
                                    const std::string& name,
                                    const std::string& args_json) {
  Event event;
  event.track = track;
  event.phase = 'C';
  event.ts = ts_us;
  event.name = name;
  event.args = args_json;
  events_.push_back(std::move(event));
}

std::string ChromeTraceBuilder::ToJson() const {
  // Per-track timestamp order; a longer span sorts before a shorter one at
  // the same start so nesting reads outer-to-inner. stable_sort keeps the
  // recording order as the final tiebreak.
  std::vector<const Event*> sorted;
  sorted.reserve(events_.size());
  for (const Event& event : events_) sorted.push_back(&event);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event* a, const Event* b) {
                     if (a->track != b->track) return a->track < b->track;
                     if (a->ts != b->ts) return a->ts < b->ts;
                     return a->dur > b->dur;
                   });

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto pid = [](int track) { return track >= kSimTrackBase ? 1 : 0; };
  const bool simulated =
      (!track_names_.empty() && pid(track_names_.rbegin()->first) == 1) ||
      (!sorted.empty() && pid(sorted.back()->track) == 1);
  if (simulated) {
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
           "\"args\":{\"name\":\"simulated clock (us)\"}}";
    first = false;
  }
  int open_track = -1;
  bool open_track_valid = false;
  auto emit_track_meta = [&](int track) {
    if (open_track_valid && open_track == track) return;
    open_track = track;
    open_track_valid = true;
    if (!first) out << ",";
    first = false;
    auto it = track_names_.find(track);
    const std::string name = it != track_names_.end()
                                 ? it->second
                                 : "track " + std::to_string(track);
    out << "{\"ph\":\"M\",\"pid\":" << pid(track) << ",\"tid\":" << track
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << JsonEscape(name) << "\"}}";
  };
  // Tracks that were named but recorded no events still get their metadata
  // (an idle device shows as an empty named track, not nothing).
  for (const auto& [track, name] : track_names_) {
    (void)name;
    bool has_events = false;
    for (const Event* event : sorted) {
      if (event->track == track) {
        has_events = true;
        break;
      }
    }
    if (!has_events) emit_track_meta(track);
  }
  open_track_valid = false;
  for (const Event* event : sorted) {
    emit_track_meta(event->track);
    out << ",{\"ph\":\"" << event->phase << "\",\"pid\":"
        << pid(event->track) << ",\"tid\":" << event->track << ",\"ts\":";
    AppendNumber(event->ts, &out);
    if (event->phase == 'X') {
      out << ",\"dur\":";
      AppendNumber(event->dur, &out);
    } else if (event->phase == 'i') {
      out << ",\"s\":\"t\"";
    }
    out << ",\"name\":\"" << JsonEscape(event->name.empty() ? "op"
                                                            : event->name)
        << "\"";
    if (!event->args.empty()) out << ",\"args\":" << event->args;
    out << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace adamant::obs
