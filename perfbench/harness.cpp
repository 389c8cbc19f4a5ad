#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <thread>

#include "core/registry.hpp"
#include "rng/philox_batch.hpp"
#include "rng/splitmix64.hpp"
#include "rng/uniform.hpp"

namespace perfbench {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The innermost open span of this thread (0 = none).
thread_local std::uint64_t t_current_span = 0;

std::string fmt_full(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

// ----------------------------------------------------------- percentiles

namespace {
/// ceil(q * n) as a 1-based rank, robust to q's binary rounding (0.99 * 1000
/// must be rank 990, not 991).
std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return static_cast<std::size_t>(std::clamp(r, 1.0, static_cast<double>(n)));
}
}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

std::optional<double> tail_quantile(const std::vector<double>& v, double q,
                                    std::size_t min_beyond) {
  if (v.empty() || samples_beyond(v.size(), q) < min_beyond) return std::nullopt;
  return quantile(v, q);
}

// ----------------------------------------------------------------- spans

void span_log::add(span_record r) {
  const std::lock_guard<std::mutex> lock(m_);
  spans_.push_back(std::move(r));
}

std::vector<span_record> span_log::spans() const {
  const std::lock_guard<std::mutex> lock(m_);
  return spans_;
}

bool span_log::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::vector<span_record> all = spans();
  const std::vector<double> self = self_times(all);
  f << "{\"spans\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const span_record& s = all[i];
    f << "  {\"name\": \"" << json_escape(s.name) << "\", \"id\": " << s.id
      << ", \"parent\": " << s.parent << ", \"request\": " << s.request
      << ", \"start_s\": " << fmt_full(s.t0) << ", \"end_s\": " << fmt_full(s.t1)
      << ", \"self_s\": " << fmt_full(self[i]) << "}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

scoped_span::scoped_span(span_log* log, const char* name, std::uint64_t request,
                         std::uint64_t parent)
    : log_(log) {
  if (log_ == nullptr) return;
  rec_.name = name;
  rec_.id = log_->next_id();
  rec_.parent = parent == kInherit ? t_current_span : parent;
  rec_.request = request;
  saved_current_ = t_current_span;
  t_current_span = rec_.id;
  rec_.t0 = now_s();
}

scoped_span::~scoped_span() {
  if (log_ == nullptr) return;
  rec_.t1 = now_s();
  t_current_span = saved_current_;
  log_->add(std::move(rec_));
}

std::vector<double> self_times(const std::vector<span_record>& spans) {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const span_record& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const span_record& p = spans[it->second];
    const double a = std::max(s.t0, p.t0);
    const double b = std::min(s.t1, p.t1);
    if (a < b) kids[it->second].emplace_back(a, b);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double lo = 0.0;
    double hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[i] = std::max(0.0, (spans[i].t1 - spans[i].t0) - covered);
  }
  return self;
}

std::map<std::string, double> self_time_by_name(const std::vector<span_record>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> by;
  for (std::size_t i = 0; i < spans.size(); ++i) by[spans[i].name] += self[i];
  return by;
}

// ------------------------------------------------------------------ host

namespace {

/// Delivered parallelism: `threads` busy loops of a fixed amount of work
/// each; CPU seconds consumed divided by wall seconds.  Ideally == threads.
double busy_probe_parallelism(unsigned threads, double seconds_per_thread) {
  const double w0 = now_s();
  std::vector<std::thread> ts;
  std::atomic<std::uint64_t> sink{0};
  for (unsigned t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      const double c0 = thread_cpu_s();
      std::uint64_t x = t + 1;
      while (thread_cpu_s() - c0 < seconds_per_thread) {
        for (int i = 0; i < 20000; ++i) x = cgp::rng::mix64(x);
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (auto& t : ts) t.join();
  const double wall = now_s() - w0;
  return wall <= 0.0 ? 0.0 : threads * seconds_per_thread / wall;
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

double host_probe() { return busy_probe_parallelism(nproc(), 0.1); }

/// {stolen, all} CPU ticks of the whole host so far, from /proc/stat's
/// first line; zeros where it cannot be read.
std::pair<double, double> cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  double total = 0.0;
  double steal = 0.0;
  double v = 0.0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user and nice)
  for (int i = 0; i < 8 && (f >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

host_guard::~host_guard() {
  {
    const std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

void host_guard::sample() {
  const auto [steal, total] = cpu_ticks();
  const point p{now_s(), process_cpu_s(), steal, total};
  const std::lock_guard<std::mutex> lock(m_);
  points_.push_back(p);
}

void host_guard::before() {
  parallelism_before_ = host_probe();
  sample();
  sampler_ = std::thread([this] {
    using clock = std::chrono::steady_clock;
    const auto period = std::chrono::duration_cast<clock::duration>(
        std::chrono::duration<double>(kSliceSeconds));
    auto next = clock::now() + period;
    std::unique_lock<std::mutex> lock(m_);
    while (!cv_.wait_until(lock, next, [this] { return stop_; })) {
      lock.unlock();
      sample();
      lock.lock();
      next += period;
    }
  });
}

void host_guard::after() {
  {
    const std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  cv_.notify_all();
  sampler_.join();
  sample();
  // A last interval shorter than half a slice joins the one before it.
  if (points_.size() > 2 && points_.back().t - points_[points_.size() - 2].t < kSliceSeconds / 2) {
    points_.erase(points_.end() - 2);
  }
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const point& a = points_[i - 1];
    const point& b = points_[i];
    const double ticks = b.total - a.total;
    slices_.push_back({a.t, b.t, b.cpu_s - a.cpu_s, ticks > 0.0 ? (b.steal - a.steal) / ticks : 0.0});
  }
  parallelism_after_ = host_probe();
}

void host_guard::report_to(report& rep) const {
  const point& a = points_.front();
  const point& b = points_.back();
  rep.metric("host.parallelism_before", parallelism_before_, "ratio", 1);
  rep.metric("host.parallelism_after", parallelism_after_, "ratio", 1);
  rep.metric("host.parallelism", std::min(parallelism_before_, parallelism_after_), "ratio", 2);
  rep.metric("host.steal_frac", b.total > a.total ? (b.steal - a.steal) / (b.total - a.total) : 0.0,
             "ratio", slices_.size());
  rep.metric("host.cpu_per_wall", b.t > a.t ? (b.cpu_s - a.cpu_s) / (b.t - a.t) : 0.0, "ratio",
             slices_.size());
}

std::vector<double> latencies(const std::vector<request_record>& requests, int type) {
  std::vector<double> v;
  for (const request_record& r : requests) {
    if (r.type == type) v.push_back(r.t1 - r.t0);
  }
  return v;
}

double trace_overhead(const std::vector<request_record>& untraced,
                      const std::vector<request_record>& traced, int types) {
  const auto totals = [types](const std::vector<request_record>& rs) {
    std::vector<std::pair<double, double>> by(static_cast<std::size_t>(types));  // {s, items}
    for (const request_record& r : rs) {
      by[static_cast<std::size_t>(r.type)].first += r.t1 - r.t0;
      by[static_cast<std::size_t>(r.type)].second += static_cast<double>(r.items);
    }
    return by;
  };
  const auto u = totals(untraced);
  const auto t = totals(traced);
  double cost = 0.0;
  double own = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    if (t[i].second == 0.0 || u[i].second == 0.0) continue;
    cost += t[i].first / t[i].second * u[i].second;
    own += u[i].first;
  }
  return own > 0.0 ? cost / own - 1.0 : 0.0;
}

quiet_figures quiet_share(const std::vector<host_guard::slice>& slices,
                          const std::vector<request_record>& requests, int types, double share) {
  quiet_figures q;
  q.latency_s.resize(static_cast<std::size_t>(types));
  if (slices.empty()) return q;
  std::vector<std::size_t> order(slices.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return slices[a].steal_frac < slices[b].steal_frac;
  });
  q.slices = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(share * static_cast<double>(slices.size()))));
  std::vector<bool> taken(slices.size(), false);
  for (std::size_t i = 0; i < q.slices; ++i) {
    const host_guard::slice& sl = slices[order[i]];
    taken[order[i]] = true;
    q.wall_s += sl.t1 - sl.t0;
    q.cpu_s += sl.cpu_s;
    q.steal_frac += sl.steal_frac / static_cast<double>(q.slices);
  }
  // Whether time t falls inside a taken slice.
  const auto taken_at = [&](double t) {
    const auto it = std::upper_bound(slices.begin(), slices.end(), t,
                                     [](double v, const host_guard::slice& sl) { return v < sl.t0; });
    return it != slices.begin() && t <= std::prev(it)->t1 && taken[static_cast<std::size_t>(
                                                                 it - slices.begin() - 1)];
  };
  for (const request_record& r : requests) {
    const double span = r.t1 - r.t0;
    if (span <= 0.0) continue;
    for (std::size_t i = 0; i < slices.size(); ++i) {
      const double overlap = std::min(r.t1, slices[i].t1) - std::max(r.t0, slices[i].t0);
      if (!taken[i] || overlap <= 0.0) continue;
      q.items += overlap / span * static_cast<double>(r.items);
      q.requests += overlap / span;
      q.busy_s += overlap;
    }
    if (taken_at(r.t1)) q.cpu_s -= r.validate_cpu_s;
    if (taken_at(0.5 * (r.t0 + r.t1))) {
      q.latency_s[static_cast<std::size_t>(r.type)].push_back(span);
    }
  }
  return q;
}

void report_rates(report& rep, const quiet_figures& q, bool one_caller) {
  const double secs = one_caller ? q.busy_s : q.wall_s;
  const auto n = static_cast<std::uint64_t>(std::llround(q.requests));
  rep.metric("items_per_s", secs > 0.0 ? q.items / secs : 0.0, "items/s", n);
  rep.metric("req_per_s", secs > 0.0 ? q.requests / secs : 0.0, "req/s", n);
  rep.metric("cpu_ns_per_item", q.items > 0.0 ? q.cpu_s * 1e9 / q.items : 0.0, "ns", n);
  rep.metric("host.quiet_slices", static_cast<double>(q.slices), "count", q.slices);
  rep.metric("host.quiet_steal_frac", q.steal_frac, "ratio", q.slices);
}

void host_warmup(double seconds) {
  (void)busy_probe_parallelism(nproc(), seconds);
  // Spin on, a tenth of a second at a time and for at most two seconds,
  // until one passes without a stolen CPU tick: the hypervisor steals in
  // bursts, and a set-up is timed at a quiet moment.
  for (int i = 0; i < 20; ++i) {
    const double stolen = cpu_ticks().first;
    (void)busy_probe_parallelism(nproc(), 0.1);
    if (cpu_ticks().first == stolen) break;
  }
}

void report_setup(report& rep, double setup_s) {
  rep.metric("setup_s", setup_s, "s", 1);
  rep.metric("setup_peak_rss_mb", peak_rss_mib(), "MiB", 1);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double proc_status_kib(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream is(line.substr(key.size()));
      double v = 0.0;
      is >> v;
      return v;
    }
  }
  return 0.0;
}

void host_info(report& rep) {
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(cgp::core::shared_profile().fingerprint()));
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);  // bytes; <= 0 when unknown
  rep.info("nproc", std::to_string(std::thread::hardware_concurrency()));
  rep.info("simd_path", cgp::rng::simd_path_name(cgp::rng::active_simd_path()));
  rep.info("llc_mib", std::to_string(llc > 0 ? llc >> 20 : 0));
  rep.info("profile_fingerprint", fp);
}

// ------------------------------------------------------------ validation

namespace {
constexpr std::uint64_t kMultisetKey = 0x6D756C7469736574ull;  // 'multiset'
constexpr std::uint64_t kOrderStep = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kRecKey = 0x7265633136ull;  // 'rec16'
}  // namespace

hashes hash_values(std::span<const std::uint64_t> v) {
  hashes h;
  std::uint64_t pos = 0;
  for (const std::uint64_t x : v) {
    h.multiset += cgp::rng::mix64(x ^ kMultisetKey);
    h.order += cgp::rng::mix64(x + (pos += kOrderStep));
  }
  return h;
}

bool is_permutation_of_iota(std::span<const std::uint64_t> v) {
  std::vector<std::uint64_t> seen((v.size() + 63) / 64, 0);
  for (const std::uint64_t x : v) {
    if (x >= v.size()) return false;
    std::uint64_t& w = seen[x >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (x & 63);
    if ((w & bit) != 0) return false;
    w |= bit;
  }
  return true;
}

rec16 make_rec16(std::uint64_t id) { return {id, cgp::rng::mix64(id ^ kRecKey)}; }

std::optional<hashes> hash_records(std::span<const rec16> v) {
  hashes h;
  std::uint64_t pos = 0;
  for (const rec16& r : v) {
    if (r.tag != cgp::rng::mix64(r.id ^ kRecKey)) return std::nullopt;
    h.multiset += cgp::rng::mix64(r.id ^ kMultisetKey);
    h.order += cgp::rng::mix64(r.id + (pos += kOrderStep));
  }
  return h;
}

// ---------------------------------------------------------------- report

void report::info(const std::string& key, const std::string& value) {
  const std::lock_guard<std::mutex> lock(m_);
  std::cout << "info " << key << " " << value << "\n";
}

void report::metric(const std::string& name, double value, const std::string& unit,
                    std::uint64_t samples) {
  const std::lock_guard<std::mutex> lock(m_);
  std::cout << "metric " << name << " " << fmt_full(value) << " " << unit << " " << samples
            << "\n";
}

void report::check(const std::string& name, bool ok, const std::string& detail) {
  const std::lock_guard<std::mutex> lock(m_);
  if (!ok) correct_ = false;
  std::cout << "check " << name << " " << (ok ? "ok" : "FAIL") << (detail.empty() ? "" : " ")
            << detail << "\n";
}

void report::requests(std::uint64_t attempted, std::uint64_t failed) {
  const std::lock_guard<std::mutex> lock(m_);
  std::cout << "requests " << attempted << " " << failed << "\n";
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  return cgp::rng::mix64(seed ^ cgp::rng::mix64(k + 0xB5AD4ECEDA1CE2A9ull));
}

std::vector<int> seeded_block(std::span<const int> counts, cgp::rng::philox4x64& order) {
  std::vector<int> b;
  for (std::size_t t = 0; t < counts.size(); ++t) b.insert(b.end(), counts[t], static_cast<int>(t));
  for (std::size_t i = b.size(); i > 1; --i) {
    std::swap(b[i - 1], b[cgp::rng::uniform_below(order, i)]);
  }
  return b;
}

std::string plan_text(const cgp::core::permutation_plan& p) {
  return std::string("backend=") + cgp::core::backend_name(p.chosen) +
         " threads=" + std::to_string(p.threads) +
         " split_levels=" + std::to_string(p.split_levels) +
         " em_M=" + std::to_string(p.em_memory_items) + " em_B=" + std::to_string(p.em_block_items) +
         " em_K=" + std::to_string(p.em_fan_out) + " em_levels=" + std::to_string(p.em_levels);
}

}  // namespace perfbench
