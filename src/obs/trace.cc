#include "obs/trace.h"

#include "obs/chrome_trace.h"

namespace adamant::obs {

std::atomic<bool> g_tracing_enabled{false};

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();  // leaked: process-wide
  return *recorder;
}

TraceRecorder::ThreadBuffer* TraceRecorder::LocalBuffer() {
  // The thread_local shared_ptr keeps the buffer alive for this thread; the
  // registry keeps it alive after the thread exits so joined partition
  // threads' events still export. One registration per (thread, recorder).
  thread_local std::shared_ptr<ThreadBuffer> local;
  thread_local TraceRecorder* owner = nullptr;
  if (owner != this) {
    local = std::make_shared<ThreadBuffer>();
    owner = this;
    std::lock_guard<std::mutex> lock(registry_mu_);
    buffers_.push_back(local);
  }
  return local.get();
}

void TraceRecorder::Enable() {
  Clear();
  epoch_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count(),
                  std::memory_order_relaxed);
  {
    // A new trace names only its own tracks, never an earlier trace's.
    std::lock_guard<std::mutex> lock(registry_mu_);
    track_names_ = {{kHostTrack, "host"}, {kServiceTrack, "service"}};
  }
  g_tracing_enabled.store(true, std::memory_order_release);
}

void TraceRecorder::Disable() {
  g_tracing_enabled.store(false, std::memory_order_release);
}

uint64_t TraceRecorder::NowUs() const {
  const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count();
  const int64_t epoch = epoch_ns_.load(std::memory_order_relaxed);
  const int64_t delta = now_ns - epoch;
  return delta > 0 ? static_cast<uint64_t>(delta) / 1000 : 0;
}

void TraceRecorder::SetTrackName(int track, const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  track_names_[track] = name;
}

void TraceRecorder::Append(Event event) {
  ThreadBuffer* buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  if (buffer->events.size() >= kMaxEventsPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->events.push_back(std::move(event));
}

void TraceRecorder::RecordComplete(int track, double start_us,
                                   double dur_us, std::string name,
                                   std::string args_json) {
  if (!TracingEnabled()) return;
  Event event;
  event.track = track;
  event.ts = start_us;
  event.dur = dur_us;
  event.name = std::move(name);
  event.args = std::move(args_json);
  Append(std::move(event));
}

void TraceRecorder::RecordInstant(int track, std::string name,
                                  std::string args_json) {
  if (!TracingEnabled()) return;
  Event event;
  event.track = track;
  event.phase = 'i';
  event.ts = NowUs();
  event.name = std::move(name);
  event.args = std::move(args_json);
  Append(std::move(event));
}

void TraceRecorder::RecordCounter(int track, std::string name,
                                  std::string args_json) {
  if (!TracingEnabled()) return;
  Event event;
  event.track = track;
  event.phase = 'C';
  event.ts = NowUs();
  event.name = std::move(name);
  event.args = std::move(args_json);
  Append(std::move(event));
}

std::string TraceRecorder::ExportChromeJson() {
  ChromeTraceBuilder builder;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& [track, name] : track_names_) {
    builder.SetTrackName(track, name);
  }
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    for (const Event& event : buffer->events) {
      if (event.phase == 'i') {
        builder.AddInstant(event.track, event.ts, event.name, event.args);
      } else if (event.phase == 'C') {
        builder.AddCounter(event.track, event.ts, event.name, event.args);
      } else {
        builder.AddComplete(event.track, event.ts, event.dur, event.name,
                            event.args);
      }
    }
  }
  return builder.ToJson();
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->events.clear();
  }
  next_sim_window_ = SimWindow{};
  dropped_.store(0, std::memory_order_relaxed);
}

TraceRecorder::SimWindow TraceRecorder::ClaimSimulatedWindow(
    double length_us) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  const SimWindow window = next_sim_window_;
  next_sim_window_.start_us += length_us;
  ++next_sim_window_.run;
  return window;
}

size_t TraceRecorder::TotalEvents() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  size_t total = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total += buffer->events.size();
  }
  return total;
}

void TraceSpan::End() {
  if (!active_) return;
  active_ = false;
  TraceRecorder& recorder = TraceRecorder::Global();
  const uint64_t end = recorder.NowUs();
  recorder.RecordComplete(track_, start_, end > start_ ? end - start_ : 0,
                          std::move(name_), std::move(args_));
  name_.clear();
  args_.clear();
}

}  // namespace adamant::obs
