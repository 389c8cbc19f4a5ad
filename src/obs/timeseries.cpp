#include "obs/timeseries.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace cgp::obs {

sampler::sampler(sampler_options opt) : opt_(opt) {
  if (opt_.period_ms == 0) opt_.period_ms = 1;
  if (opt_.slots == 0) opt_.slots = 1;
  ring_.resize(opt_.slots);
}

sampler::~sampler() { stop(); }

void sampler::start() {
  const std::lock_guard<std::mutex> lock(m_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { loop(); });
}

void sampler::stop() {
  {
    const std::lock_guard<std::mutex> lock(m_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  const std::lock_guard<std::mutex> lock(m_);
  running_ = false;
}

bool sampler::running() const noexcept {
  const std::lock_guard<std::mutex> lock(m_);
  return running_;
}

void sampler::loop() {
  std::unique_lock<std::mutex> lock(m_);
  while (!stop_requested_) {
    take_sample_locked();
    cv_.wait_for(lock, std::chrono::milliseconds(opt_.period_ms),
                 [this] { return stop_requested_; });
  }
}

void sampler::sample_now() {
  const std::lock_guard<std::mutex> lock(m_);
  take_sample_locked();
}

void sampler::take_sample_locked() {
  const std::vector<metric_snapshot> snap = snapshot();
  sample_slot& slot = ring_[static_cast<std::size_t>(taken_ % opt_.slots)];
  slot.t_ms = detail::trace_now_ns() / 1000000u;
  // Grow the series map for names seen for the first time; the registry
  // only ever gains metrics, so after warm-up this loop allocates nothing.
  if (slot.values.size() < series_.size()) slot.values.resize(series_.size());
  std::fill(slot.values.begin(), slot.values.end(), std::int64_t{0});
  for (const metric_snapshot& s : snap) {
    if (s.labeled) continue;  // families are served whole via snapshot_json
    std::size_t idx = series_.size();
    for (std::size_t i = 0; i < series_.size(); ++i) {
      if (series_[i] == s.name) {
        idx = i;
        break;
      }
    }
    if (idx == series_.size()) {
      series_.push_back(s.name);
      for (sample_slot& sl : ring_) sl.values.resize(series_.size(), 0);
    }
    slot.values[idx] =
        s.which == metric_snapshot::kind::gauge ? s.level : static_cast<std::int64_t>(s.count);
  }
  ++taken_;
}

std::uint64_t sampler::samples_taken() const noexcept {
  const std::lock_guard<std::mutex> lock(m_);
  return taken_;
}

std::string sampler::ring_json() const {
  const std::lock_guard<std::mutex> lock(m_);
  std::string out = "{\"period_ms\": " + std::to_string(opt_.period_ms) +
                    ", \"slots\": " + std::to_string(opt_.slots) +
                    ", \"samples_taken\": " + std::to_string(taken_) +
                    ", \"wall_epoch_ns\": \"" + std::to_string(wall_epoch_ns()) + "\"";
  out += ", \"series\": [";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_escape_quoted(series_[i]);
  }
  out += "]";
  const std::uint64_t held = std::min<std::uint64_t>(taken_, opt_.slots);
  const std::uint64_t first = taken_ - held;  // oldest sample index still held
  out += ", \"samples\": [";
  for (std::uint64_t k = first; k < taken_; ++k) {
    const sample_slot& s = ring_[static_cast<std::size_t>(k % opt_.slots)];
    if (k != first) out += ", ";
    out += "{\"t_ms\": " + std::to_string(s.t_ms) + ", \"values\": [";
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      if (i != 0) out += ", ";
      out += std::to_string(s.values[i]);
    }
    out += "]}";
  }
  out += "]";
  out += ", \"deltas\": [";
  bool first_delta = true;
  for (std::uint64_t k = first + 1; k < taken_; ++k) {
    const sample_slot& cur = ring_[static_cast<std::size_t>(k % opt_.slots)];
    const sample_slot& prev = ring_[static_cast<std::size_t>((k - 1) % opt_.slots)];
    if (!first_delta) out += ", ";
    first_delta = false;
    const std::uint64_t dt_ms = cur.t_ms > prev.t_ms ? cur.t_ms - prev.t_ms : 0;
    out += "{\"t_ms\": " + std::to_string(cur.t_ms) +
           ", \"dt_ms\": " + std::to_string(dt_ms) + ", \"values\": [";
    const std::size_t n = std::min(cur.values.size(), prev.values.size());
    std::string rates;
    for (std::size_t i = 0; i < cur.values.size(); ++i) {
      if (i != 0) {
        out += ", ";
        rates += ", ";
      }
      const std::int64_t d = i < n ? cur.values[i] - prev.values[i] : cur.values[i];
      out += std::to_string(d);
      const double rate = dt_ms == 0 ? 0.0
                                     : static_cast<double>(d) * 1000.0 /
                                           static_cast<double>(dt_ms);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", rate);
      rates += buf;
    }
    out += "], \"rates_per_s\": [" + rates + "]}";
  }
  out += "]}";
  return out;
}

}  // namespace cgp::obs
