#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <variant>

#include "util/json.hpp"

namespace cgp::obs {

namespace {

// -1 = not yet resolved from the environment.
std::atomic<int> g_enabled{-1};

int resolve_enabled_slow() noexcept {
  // First touch: the environment decides the default.  A racing
  // set_enabled() wins -- both stores write a definite value.
  const int v = std::getenv("CGP_OBS_OFF") == nullptr ? 1 : 0;
  int expected = -1;
  g_enabled.compare_exchange_strong(expected, v, std::memory_order_relaxed);
  return g_enabled.load(std::memory_order_relaxed);
}

// One registered metric.  The name and kind are fixed at insertion; the
// metric lives on the heap, so its reference survives later
// registrations.
struct metric_node {
  std::string name;
  std::variant<std::unique_ptr<counter>, std::unique_ptr<gauge>, std::unique_ptr<histogram>,
               std::unique_ptr<counter_family>, std::unique_ptr<histogram_family>>
      metric;
};

struct metric_registry {
  std::mutex mutex;
  std::vector<metric_node> nodes;
};

metric_registry& instance() {
  static metric_registry reg;
  return reg;
}

template <typename Metric>
Metric& lookup(std::string_view name) {
  metric_registry& reg = instance();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& n : reg.nodes) {
    if (n.name != name) continue;
    if (auto* m = std::get_if<std::unique_ptr<Metric>>(&n.metric)) return **m;
    std::fprintf(stderr, "cgmperm: obs metric '%.*s' registered with two kinds\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  auto m = std::make_unique<Metric>();
  Metric& ref = *m;
  reg.nodes.push_back({std::string(name), std::move(m)});
  return ref;
}

metric_snapshot row_of(const counter& c) {
  metric_snapshot s;
  s.count = c.value();
  return s;
}

metric_snapshot row_of(const gauge& g) {
  metric_snapshot s;
  s.which = metric_snapshot::kind::gauge;
  s.level = g.value();
  s.peak = g.peak();
  return s;
}

metric_snapshot row_of(const histogram& h) { return summarize(h); }

template <typename Metric>
void append_rows(std::vector<metric_snapshot>& out, const std::string& name, const Metric& m) {
  out.push_back(row_of(m));
  out.back().name = name;
}

template <typename Metric>
void append_rows(std::vector<metric_snapshot>& out, const std::string& name,
                 const family<Metric>& f) {
  const auto slot_row = [&](const Metric& m) -> metric_snapshot& {
    out.push_back(row_of(m));
    out.back().name = name;
    out.back().labeled = true;
    return out.back();
  };
  for (const auto& [label, m] : f.entries()) slot_row(*m).label = label;
  slot_row(f.overflow()).overflow = true;
}

/// A histogram row's JSON object.
std::string histogram_json(const metric_snapshot& s) {
  return "{\"count\": " + std::to_string(s.count) + ", \"sum\": " + std::to_string(s.sum) +
         ", \"max\": " + std::to_string(s.max) + ", \"p50\": " + std::to_string(s.p50) +
         ", \"p90\": " + std::to_string(s.p90) + ", \"p99\": " + std::to_string(s.p99) +
         ", \"p99_exemplar_trace_id\": \"" + std::to_string(s.p99_exemplar) + "\"}";
}

}  // namespace

bool enabled() noexcept {
  const int v = g_enabled.load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  return resolve_enabled_slow() != 0;
}

void set_enabled(bool on) noexcept {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::size_t histogram::rank_bucket(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return kBuckets;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank: the k-th smallest observation, k = ceil(q * total) >= 1.
  const auto k = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b].load(std::memory_order_relaxed);
    if (seen >= k) return b;
  }
  // Concurrent records can leave count_ ahead of the bucket sums; answer
  // with the highest occupied bucket.
  for (std::size_t b = kBuckets; b-- > 0;) {
    if (counts_[b].load(std::memory_order_relaxed) != 0) return b;
  }
  return kBuckets;
}

std::uint64_t histogram::quantile(double q) const noexcept {
  const std::size_t b = rank_bucket(q);
  return b == kBuckets ? 0 : bucket_floor(b);
}

std::uint64_t histogram::quantile_exemplar(double q) const noexcept {
  const std::size_t qb = rank_bucket(q);
  if (qb == kBuckets) return 0;
  for (std::size_t b = qb; b < kBuckets; ++b) {
    const std::uint64_t e = exemplars_[b].load(std::memory_order_relaxed);
    if (e != 0) return e;
  }
  for (std::size_t b = qb; b-- > 0;) {
    const std::uint64_t e = exemplars_[b].load(std::memory_order_relaxed);
    if (e != 0) return e;
  }
  return 0;
}

metric_snapshot summarize(const histogram& h) {
  metric_snapshot s;
  s.which = metric_snapshot::kind::histogram;
  s.count = h.count();
  s.sum = h.sum();
  s.max = h.max();
  s.p50 = h.quantile(0.50);
  s.p90 = h.quantile(0.90);
  s.p99 = h.quantile(0.99);
  s.p99_exemplar = h.quantile_exemplar(0.99);
  return s;
}

counter& get_counter(std::string_view name) { return lookup<counter>(name); }
gauge& get_gauge(std::string_view name) { return lookup<gauge>(name); }
histogram& get_histogram(std::string_view name) { return lookup<histogram>(name); }
counter_family& get_counter_family(std::string_view name) {
  return lookup<counter_family>(name);
}
histogram_family& get_histogram_family(std::string_view name) {
  return lookup<histogram_family>(name);
}

std::vector<metric_snapshot> snapshot() {
  metric_registry& reg = instance();
  std::vector<metric_snapshot> out;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    out.reserve(reg.nodes.size());
    for (const metric_node& n : reg.nodes) {
      std::visit([&](const auto& m) { append_rows(out, n.name, *m); }, n.metric);
    }
  }
  // Stable: a family's rows keep their slot order.
  std::stable_sort(out.begin(), out.end(), [](const metric_snapshot& a, const metric_snapshot& b) {
    return std::tie(a.labeled, a.name) < std::tie(b.labeled, b.name);
  });
  return out;
}

std::string snapshot_json() {
  std::string counters = "{";
  std::string gauges = "{";
  std::string hists = "{";
  std::string cfams = "{";
  std::string hfams = "{";
  const auto next = [](std::string& section) -> std::string& {
    if (section.size() > 1) section += ", ";
    return section;
  };
  bool open = false;  // a family's object is open until its overflow row
  for (const metric_snapshot& s : snapshot()) {
    if (s.labeled) {
      // A family's rows are consecutive: labels in order, then the
      // overflow slot, which closes the family's object.
      const bool hist = s.which == metric_snapshot::kind::histogram;
      std::string& section = hist ? hfams : cfams;
      if (!open) next(section) += json_escape_quoted(s.name) + ": {";
      open = !s.overflow;
      section += s.overflow ? "\"overflow\": " + std::to_string(s.count) + "}"
                            : "\"" + std::to_string(s.label) + "\": " +
                                  (hist ? histogram_json(s) : std::to_string(s.count)) + ", ";
      continue;
    }
    switch (s.which) {
      case metric_snapshot::kind::counter:
        next(counters) += json_escape_quoted(s.name) + ": " + std::to_string(s.count);
        break;
      case metric_snapshot::kind::gauge:
        next(gauges) += json_escape_quoted(s.name) + ": {\"value\": " + std::to_string(s.level) +
                        ", \"peak\": " + std::to_string(s.peak) + "}";
        break;
      case metric_snapshot::kind::histogram:
        next(hists) += json_escape_quoted(s.name) + ": " + histogram_json(s);
        break;
    }
  }
  return "{\"counters\": " + counters + "}, \"gauges\": " + gauges + "}, \"histograms\": " +
         hists + "}, \"counter_families\": " + cfams + "}, \"histogram_families\": " + hfams +
         "}}";
}

}  // namespace cgp::obs
