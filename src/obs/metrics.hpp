// obs/metrics.hpp
//
// The process-wide metrics registry of the observability layer (src/obs/):
// named counters, gauges, and fixed-bucket histograms that every subsystem
// (core planner, smp/em engines, comm transports, svc service) records
// into from its hot paths.  Design constraints, in order:
//
//   1. *Never perturb output.*  Metrics only observe; nothing downstream
//      of a counter can change a permutation.  The bit-reproducibility
//      suites run with instrumentation on and off (tests/test_obs.cpp).
//   2. *Cheap enough to leave on.*  Every mutation is one relaxed atomic
//      RMW on a cache line owned by the metric (registration -- the only
//      mutex -- happens once per name; hot callers cache the reference in
//      a function-local static).  The `CGP_OBS_OFF` env var (or
//      set_enabled(false)) reduces mutations to a single relaxed load.
//      Per-ITEM work is never instrumented -- only per-call / per-level /
//      per-block quantities.  perfbench runs with metrics on, so their
//      cost is inside every cpu_ns_per_item it reports.
//   3. *Lifetime = process.*  References returned by the registry stay
//      valid until exit, like core/registry.hpp's engines.  Counters are
//      monotone; consumers diff snapshots rather than resetting.
//
// Naming scheme (DESIGN.md section 8): dotted lowercase `layer.noun` /
// `layer.noun.verb`, e.g. `core.plan_cache.hits`, `em.io.reads`,
// `comm.bytes_sent`, `svc.jobs.done`.  Histogram values are unit-suffixed
// (`svc.job_latency_ns`).  Labeled families append `.by_client` (e.g.
// `svc.jobs.done.by_client`); the label is always a numeric id, never a
// string, which is what keeps cardinality bounded by construction.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rng/splitmix64.hpp"

namespace cgp::obs {

/// Global recording gate: true unless the CGP_OBS_OFF environment variable
/// is set (checked once) or set_enabled(false) was called.  A disabled
/// registry still hands out metric references; mutations become a single
/// relaxed load and snapshots simply stop advancing.
[[nodiscard]] bool enabled() noexcept;

/// Programmatic override of the gate (benches toggle it to measure the
/// instrumentation's own cost; tests pin that the gate never changes
/// permutation output).
void set_enabled(bool on) noexcept;

/// Metrics are aligned to a cache line each, so two metrics updated from
/// different threads never share one (the registry and the families
/// allocate them one by one).
inline constexpr std::size_t kMetricAlign = 64;

/// Monotone event count.
class alignas(kMetricAlign) counter {
 public:
  void add(std::uint64_t d = 1) noexcept {
    if (enabled()) v_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level (queue depths, in-flight operations).
class alignas(kMetricAlign) gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (enabled()) v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    if (enabled()) v_.fetch_add(d, std::memory_order_relaxed);
  }
  void sub(std::int64_t d) noexcept { add(-d); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  /// Raise the separately tracked high-water mark to at least `v` (the
  /// current value does not move).
  void note_peak(std::int64_t v) noexcept {
    if (!enabled()) return;
    std::int64_t cur = peak_.load(std::memory_order_relaxed);
    while (v > cur && !peak_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t peak() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> peak_{0};
};

/// Fixed-bucket log-scale histogram of non-negative values (latencies in
/// ns, batch sizes, ...).  Bucketing: values below 16 get exact unit
/// buckets; above, each power of two splits into 8 sub-buckets, so any
/// recorded value lands in a bucket whose width is at most 1/8 of its
/// lower bound (<= 12.5% relative quantile error by construction --
/// tests/test_obs.cpp pins this against a sorted-vector oracle).  All
/// state is atomic; record() is two relaxed RMWs plus two CAS peaks.
/// Usable standalone (a bench-local histogram) or through the registry.
class alignas(kMetricAlign) histogram {
 public:
  static constexpr std::size_t kUnitBuckets = 16;   // values 0..15, exact
  static constexpr std::size_t kSubBuckets = 8;     // per power of two
  static constexpr std::size_t kBuckets =
      kUnitBuckets + (64 - 4) * kSubBuckets;        // up to 2^64 - 1

  /// The bucket `v` lands in.
  [[nodiscard]] static constexpr std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v < kUnitBuckets) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);  // >= 4
    const auto sub = static_cast<std::size_t>((v >> (msb - 3)) & (kSubBuckets - 1));
    return kUnitBuckets + static_cast<std::size_t>(msb - 4) * kSubBuckets + sub;
  }

  /// Inclusive lower bound of bucket `b` (the smallest value mapping to it).
  [[nodiscard]] static constexpr std::uint64_t bucket_floor(std::size_t b) noexcept {
    if (b < kUnitBuckets) return b;
    const std::size_t rel = b - kUnitBuckets;
    const int msb = static_cast<int>(rel / kSubBuckets) + 4;
    const std::uint64_t sub = rel % kSubBuckets;
    return (std::uint64_t{1} << msb) + (sub << (msb - 3));
  }

  /// Record `v`; when `trace_id` is nonzero it is retained as the bucket's
  /// exemplar (last writer wins), linking e.g. a p99 latency outlier
  /// directly to its distributed trace.
  void record(std::uint64_t v, std::uint64_t trace_id = 0) noexcept {
    if (!enabled()) return;
    const std::size_t b = bucket_of(v);
    counts_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t m = max_.load(std::memory_order_relaxed);
    while (v > m && !max_.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
    }
    if (trace_id != 0) exemplars_[b].store(trace_id, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  /// Nearest-rank quantile, q in [0, 1]: the lower bound of the bucket
  /// holding the ceil(q * count)-th smallest recorded value (so the answer
  /// is a value that maps into the same bucket as the exact order
  /// statistic).  0 when empty.  A concurrent record() can skew the rank
  /// by the in-flight observation -- acceptable for monitoring readout.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  /// The exemplar trace_id stored in bucket `b` (0 when none was recorded).
  [[nodiscard]] std::uint64_t exemplar(std::size_t b) const noexcept {
    return b < kBuckets ? exemplars_[b].load(std::memory_order_relaxed) : 0;
  }

  /// The exemplar nearest the q-quantile: the quantile's own bucket if it
  /// holds one, else the closest exemplar-bearing bucket above it (tail
  /// outliers live above the quantile).  0 when no traced value landed
  /// there.
  [[nodiscard]] std::uint64_t quantile_exemplar(double q) const noexcept;

 private:
  /// The bucket holding the q-quantile's nearest-rank value; kBuckets
  /// when empty.
  [[nodiscard]] std::size_t rank_bucket(double q) const noexcept;

  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> exemplars_{};
};

/// A bounded family of metrics keyed by a numeric label (client_id,
/// rank, ...): per-tenant metrics without per-tenant registration churn.
/// Slots are claimed lock-free on first use (open addressing over a fixed
/// array, one CAS); the slot's metric is allocated on that first use and
/// installed with a second CAS (a histogram is several KB; 64 eager copies
/// per family would be wasteful), and the family frees them.  After the
/// claim, a hit is a short probe plus the metric's own relaxed RMW.  When
/// all kSlots labels are taken -- or the registry is disabled -- hits land
/// on the shared overflow metric, so with() never fails and cardinality
/// is bounded by construction.
template <typename Metric>
class family {
 public:
  static constexpr std::size_t kSlots = 64;  ///< distinct labels per family

  family() = default;
  family(const family&) = delete;
  family& operator=(const family&) = delete;
  ~family() {
    for (slot& s : slots_) delete s.metric.load(std::memory_order_relaxed);
  }

  /// The metric for `label`.  Hot callers cache the reference per tenant
  /// where possible; an uncached call costs one mix + a short probe.
  [[nodiscard]] Metric& with(std::uint64_t label) {
    // Disabled: skip the probe entirely (mutations of the result are
    // no-ops anyway).  UINT64_MAX would collide with the empty-slot encoding.
    if (!enabled() || label == std::uint64_t(-1)) return overflow_;
    std::size_t i = static_cast<std::size_t>(rng::mix64(label)) & (kSlots - 1);
    const std::uint64_t want = label + 1;  // key 0 means "empty"
    for (std::size_t probes = 0; probes < kSlots; ++probes, i = (i + 1) & (kSlots - 1)) {
      std::uint64_t k = slots_[i].key.load(std::memory_order_acquire);
      if (k == 0 && slots_[i].key.compare_exchange_strong(k, want, std::memory_order_acq_rel)) {
        k = want;  // claimed; a lost race leaves the winner's key in `k`
      }
      if (k == want) return installed(slots_[i]);
    }
    return overflow_;
  }

  /// (label, metric) pairs for every claimed slot, sorted by label.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, const Metric*>> entries() const {
    std::vector<std::pair<std::uint64_t, const Metric*>> out;
    for (const slot& s : slots_) {
      const std::uint64_t k = s.key.load(std::memory_order_acquire);
      const Metric* m = s.metric.load(std::memory_order_acquire);
      if (k != 0 && m != nullptr) out.emplace_back(k - 1, m);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Hits that could not get a dedicated slot (or arrived while disabled).
  [[nodiscard]] const Metric& overflow() const noexcept { return overflow_; }

 private:
  struct slot {
    std::atomic<std::uint64_t> key{0};      ///< label + 1; 0 = empty
    std::atomic<Metric*> metric{nullptr};  ///< allocated on the key's first use
  };

  static Metric& installed(slot& s) {
    Metric* m = s.metric.load(std::memory_order_acquire);
    if (m != nullptr) return *m;
    auto fresh = std::make_unique<Metric>();
    if (s.metric.compare_exchange_strong(m, fresh.get(), std::memory_order_acq_rel)) {
      return *fresh.release();
    }
    return *m;  // lost the install race; `fresh` is freed
  }

  std::array<slot, kSlots> slots_{};
  Metric overflow_;
};

using counter_family = family<counter>;
using histogram_family = family<histogram>;

/// Registry lookups: the metric named `name`, created on first use, alive
/// (and address-stable) until process exit.  A name is one kind only --
/// asking for an existing name with a different kind aborts (naming bug).
/// Hot paths cache the reference:
///
///   static obs::counter& c = obs::get_counter("em.io.reads");
[[nodiscard]] counter& get_counter(std::string_view name);
[[nodiscard]] gauge& get_gauge(std::string_view name);
[[nodiscard]] histogram& get_histogram(std::string_view name);
[[nodiscard]] counter_family& get_counter_family(std::string_view name);
[[nodiscard]] histogram_family& get_histogram_family(std::string_view name);

/// One row of a snapshot: a plain metric's state, or one slot of a
/// labeled family's.  Every telemetry document renders from these rows.
struct metric_snapshot {
  std::string name;
  enum class kind : std::uint8_t { counter, gauge, histogram } which = kind::counter;
  bool labeled = false;      ///< a slot of a labeled family
  bool overflow = false;     ///< the family's shared overflow slot (`label` unused)
  std::uint64_t label = 0;   ///< the family slot's label
  std::uint64_t count = 0;   ///< counter value / histogram count
  std::int64_t level = 0;    ///< gauge value
  std::int64_t peak = 0;     ///< gauge high-water mark
  std::uint64_t sum = 0, max = 0, p50 = 0, p90 = 0, p99 = 0;  ///< histogram
  std::uint64_t p99_exemplar = 0;  ///< trace_id nearest the p99 bucket (0 = none)
};

/// A histogram's row (name empty): count, sum, max, p50/p90/p99 and the
/// exemplar nearest the p99.
[[nodiscard]] metric_snapshot summarize(const histogram& h);

/// Point-in-time snapshot of the registry: one row per plain metric,
/// sorted by name, then one row per slot of each labeled family, families
/// sorted by name -- a family's claimed labels in order, then its
/// overflow slot.
[[nodiscard]] std::vector<metric_snapshot> snapshot();

/// The snapshot rendered as one JSON object:
/// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}, ...},
///  "counter_families": {name: {label: v, ...}, ...},
///  "histogram_families": {name: {label: {...}, ...}, ...}}.
[[nodiscard]] std::string snapshot_json();

}  // namespace cgp::obs
