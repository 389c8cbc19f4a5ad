// perfbench/harness.hpp
//
// The benchmark's own instruments: clocks, percentiles with a sample-count
// rule, an in-memory span log with self-time attribution, host probes, the
// output validators, and the report every workload writes.
//
// Report protocol (stdout, one record per line, parsed by run.py):
//
//   info <key> <value...>                    host / plan facts
//   metric <name> <value> <unit> <samples>   one measured figure
//   check <name> ok|FAIL <detail...>         one validation outcome
//   requests <attempted> <failed>            request accounting
//
// run.py selects the metrics BENCHMARK.json names and prints the final JSON
// line; everything else stays readable above it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/plan.hpp"
#include "rng/philox.hpp"

namespace perfbench {

// ---------------------------------------------------------------- clocks

/// Monotonic wall clock, seconds.
[[nodiscard]] double now_s();
/// CPU time of the whole process (every thread), seconds.
[[nodiscard]] double process_cpu_s();
/// CPU time of the calling thread, seconds.
[[nodiscard]] double thread_cpu_s();

// ----------------------------------------------------------- percentiles

/// Nearest-rank q-quantile (q in (0, 1]) of `v`: the ceil(q * n)-th smallest
/// sample.  0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Samples strictly beyond the nearest-rank q-quantile: n - ceil(q * n).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The q-quantile only if there are samples and at least `min_beyond` of
/// them lie beyond it (a p99 with 10 needs >= 1000 samples); else nullopt.
[[nodiscard]] std::optional<double> tail_quantile(const std::vector<double>& v, double q,
                                                  std::size_t min_beyond = 10);

/// Median of `v` (0 when empty).
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ----------------------------------------------------------------- spans

/// One closed span: name, [t0, t1] in seconds, the span that caused it (0 =
/// none) and the request it belongs to.
struct span_record {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  double t0 = 0.0;
  double t1 = 0.0;
};

/// Thread-safe in-memory span store, written out once at exit.
class span_log {
 public:
  [[nodiscard]] std::uint64_t next_id() { return next_.fetch_add(1) + 1; }
  void add(span_record r);
  [[nodiscard]] std::vector<span_record> spans() const;
  /// Write every span as one JSON document; false if the file cannot be
  /// written.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  std::atomic<std::uint64_t> next_{0};
  mutable std::mutex m_;
  std::vector<span_record> spans_;
};

/// RAII span.  Nested spans on one thread parent automatically; a span
/// opened on another thread (a pool task) names its parent explicitly.
/// A null log makes the span inert, which is how untraced runs pay nothing.
class scoped_span {
 public:
  scoped_span(span_log* log, const char* name, std::uint64_t request = 0,
              std::uint64_t parent = kInherit);
  ~scoped_span();
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return rec_.id; }

  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

 private:
  span_log* log_;
  span_record rec_;
  std::uint64_t saved_current_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.  Indexed like `spans`.
[[nodiscard]] std::vector<double> self_times(const std::vector<span_record>& spans);

/// Sum of self times by span name.
[[nodiscard]] std::map<std::string, double> self_time_by_name(
    const std::vector<span_record>& spans);

// ------------------------------------------------------------------ host

/// Peak resident set of the process (getrusage), MiB.
[[nodiscard]] double peak_rss_mib();
/// A field of /proc/self/status in kB (VmSize, VmRSS, ...); 0 if absent.
[[nodiscard]] double proc_status_kib(const char* field);

// ------------------------------------------------------------ validation

/// Two fingerprints of a sequence of 64-bit values, from one pass:
/// `multiset` (a sum of a strong mix of each value) is equal for any
/// permutation of the same values and differs, w.h.p., if a value is lost,
/// duplicated or changed; `order` is position-keyed and tells orders apart.
struct hashes {
  std::uint64_t multiset = 0;
  std::uint64_t order = 0;
};
[[nodiscard]] hashes hash_values(std::span<const std::uint64_t> v);

/// True iff `v` is a permutation of {0 .. v.size()-1}.
[[nodiscard]] bool is_permutation_of_iota(std::span<const std::uint64_t> v);

/// A 16-byte record whose second word is a checksum of the first, so a
/// torn or mixed-up record is detectable after a shuffle.
struct rec16 {
  std::uint64_t id = 0;
  std::uint64_t tag = 0;
  friend bool operator==(const rec16&, const rec16&) = default;
};
[[nodiscard]] rec16 make_rec16(std::uint64_t id);
/// Fingerprints of the records' ids; nullopt if any record is torn.
[[nodiscard]] std::optional<hashes> hash_records(std::span<const rec16> v);

/// A caller-owned buffer that is shuffled in place again and again: each
/// result must keep every value (the same multiset fingerprint) and change
/// the order.
class in_place_check {
 public:
  in_place_check() = default;
  explicit in_place_check(const hashes& initial)
      : multiset_(initial.multiset), order_(initial.order) {}
  /// The fingerprints after one more shuffle (nullopt: a torn record);
  /// false if the shuffle lost or changed a value or kept the order.
  bool next(const std::optional<hashes>& h) {
    if (!h || h->multiset != multiset_ || h->order == order_) return false;
    order_ = h->order;
    return true;
  }

 private:
  std::uint64_t multiset_ = 0;
  std::uint64_t order_ = 0;
};

/// Median wall seconds of `reps` calls of `f`.
template <typename F>
[[nodiscard]] double median_seconds(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    f();
    v.push_back(now_s() - t0);
  }
  return median(std::move(v));
}

// ---------------------------------------------------------------- report

/// Everything a workload prints: `info`, `metric`, `check` and `requests`
/// lines.  A failed check makes the run incorrect.
class report {
 public:
  void info(const std::string& key, const std::string& value);
  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples);
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void requests(std::uint64_t attempted, std::uint64_t failed);

  [[nodiscard]] bool correct() const noexcept { return correct_; }

 private:
  std::mutex m_;
  bool correct_ = true;
};

/// What every workload receives from the command line.
struct run_config {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Time one set-up and exit.  Set-up is a fresh process's cost, so run.py
  /// repeats it in several processes and reports the median.
  bool setup_only = false;
  std::string trace_out;  ///< span dump path (traced runs); empty = none
  double warmup_seconds = 1.5;
  /// Busy spin before the set-up is timed: the host parks idle vCPUs and
  /// delivers full parallelism only after some continuous load.
  double host_warmup_seconds = 0.5;
};

/// The u64 stream of the workload seed: distinct, reproducible sub-seeds.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k);

/// One block of a workload's request mix: `counts[t]` requests of each
/// type t, in an order drawn from `order`.  Every block has the same
/// composition, so runs of one workload differ only in order.
[[nodiscard]] std::vector<int> seeded_block(std::span<const int> counts,
                                            cgp::rng::philox4x64& order);

/// A plan as the report records it: backend, threads, split levels and the
/// em geometry.
[[nodiscard]] std::string plan_text(const cgp::core::permutation_plan& p);

/// Spins nproc threads of the benchmark's own work for `seconds`, so the
/// host delivers its parallelism when timing starts, and then until a
/// tenth of a second passes with no CPU stolen from the host (at most 2 s).
void host_warmup(double seconds);

/// Reports one set-up: `setup_s`, and `setup_peak_rss_mb`, the peak
/// resident set of the process so far -- the inputs, the library's objects
/// and the first request of every type.
void report_setup(report& rep, double setup_s);

/// Records the host facts every run carries: nproc, the active SIMD path,
/// the reported LLC and the machine profile's fingerprint.  Call it after
/// the set-up: it builds the library's shared profile.
void host_info(report& rep);

// ------------------------------------------------------------ timed phase

/// The host guard around a timed phase.  An nproc-thread busy probe runs
/// before and after it (`host.parallelism` is the lower of the two), and
/// while it runs a thread of its own samples, every `kSliceSeconds`, the
/// process's CPU time and the host's CPU ticks from /proc/stat, so the
/// phase can be cut into slices that each know how much CPU the
/// hypervisor stole from this host.
class host_guard {
 public:
  static constexpr double kSliceSeconds = 0.5;

  /// One slice of the phase: its wall-clock span, the process CPU time in
  /// it and the share of the host's CPU ticks that were stolen.
  struct slice {
    double t0 = 0.0;
    double t1 = 0.0;
    double cpu_s = 0.0;
    double steal_frac = 0.0;
  };

  host_guard() = default;
  ~host_guard();
  host_guard(const host_guard&) = delete;
  host_guard& operator=(const host_guard&) = delete;

  void before();  ///< probe, then start sampling: the phase begins
  void after();   ///< stop sampling, then probe: the phase has ended

  /// The phase's slices, in time order; valid after after().
  [[nodiscard]] const std::vector<slice>& slices() const noexcept { return slices_; }

  /// host.parallelism, host.steal_frac and host.cpu_per_wall of the phase.
  void report_to(report& rep) const;

 private:
  struct point {
    double t = 0.0;
    double cpu_s = 0.0;
    double steal = 0.0;  ///< stolen CPU ticks so far
    double total = 0.0;  ///< all CPU ticks so far
  };
  void sample();

  double parallelism_before_ = 0.0;
  double parallelism_after_ = 0.0;
  std::vector<slice> slices_;
  std::mutex m_;  ///< guards points_ and stop_ while the sampler runs
  std::condition_variable cv_;
  std::vector<point> points_;
  bool stop_ = false;
  std::thread sampler_;
};

/// One request of a timed phase.
struct request_record {
  double t0 = 0.0;  ///< issued
  double t1 = 0.0;  ///< completed
  std::uint64_t items = 0;
  int type = 0;
  double validate_cpu_s = 0.0;  ///< the benchmark's own checking, right after t1
};

/// What a phase delivered inside its quieter slices: the share of its
/// slices with the least stolen CPU.  The hypervisor steals CPU from this
/// host in bursts of seconds, and a multi-threaded request pays for a
/// stolen vCPU at every barrier; the quieter slices are the ones a change
/// to the program can be compared on.  A request's items, its count and
/// its request time are spread over its span pro rata; its latency counts
/// where its midpoint falls.
struct quiet_figures {
  std::size_t slices = 0;  ///< slices taken
  double wall_s = 0.0;     ///< their summed duration
  double busy_s = 0.0;     ///< request time inside them
  double cpu_s = 0.0;      ///< process CPU inside them, less validation
  double items = 0.0;
  double requests = 0.0;
  double steal_frac = 0.0;  ///< mean stolen share over them
  std::vector<std::vector<double>> latency_s;  ///< by request type
};

/// Latencies (seconds) of the requests of one type.
[[nodiscard]] std::vector<double> latencies(const std::vector<request_record>& requests,
                                            int type);

/// The traced requests' cost over the untraced ones', minus one: the
/// untraced requests priced at the traced requests' per-type seconds per
/// item, over their own time.  Traced and untraced requests alternate, so
/// both see the same host; per-type rates keep their different type counts
/// out of the estimate.
[[nodiscard]] double trace_overhead(const std::vector<request_record>& untraced,
                                    const std::vector<request_record>& traced, int types);

/// The quieter `share` of `slices` (least stolen CPU first; ties keep time
/// order) and what `requests` delivered inside them.
[[nodiscard]] quiet_figures quiet_share(const std::vector<host_guard::slice>& slices,
                                        const std::vector<request_record>& requests, int types,
                                        double share = 0.5);

/// Reports items_per_s, req_per_s and cpu_ns_per_item over the quiet
/// slices, and their count and steal.  A workload with one caller divides
/// by its request time, leaving out the validation between requests; one
/// with concurrent clients divides by wall time.
void report_rates(report& rep, const quiet_figures& q, bool one_caller);

}  // namespace perfbench
