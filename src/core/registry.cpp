#include "core/registry.hpp"

#include <array>
#include <bit>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cgp::core {

namespace {

// Two configurations share an engine iff every knob that can change the
// engine's OUTPUT or its pool agrees.  threads is normalized first so the
// "default" and "explicitly hardware concurrency" spellings coincide.
bool same_config(const smp::engine_options& a, const smp::engine_options& b) {
  return a.threads == b.threads && a.fan_out == b.fan_out && a.cache_items == b.cache_items &&
         a.sampling.pol.how == b.sampling.pol.how &&
         a.sampling.pol.hin_sd_threshold == b.sampling.pol.hin_sd_threshold &&
         a.sampling.split == b.sampling.split &&
         a.sampling.recursive_rows == b.sampling.recursive_rows;
}

smp::engine_options normalized(smp::engine_options opt) {
  if (opt.threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    opt.threads = hw == 0 ? 1 : hw;
  }
  return opt;
}

// One registry entry: the key is fixed at insertion (under the registry
// mutex), the payload is built exactly once OUTSIDE it via the per-node
// once_flag.  Concurrent first-touch calls for one configuration all rally
// on the same flag -- exactly one constructs, the rest block only on that
// construction -- while a slow construction (an engine spins up a whole
// thread pool) never holds the registry mutex, so lookups of other
// configurations proceed.  std::list keeps node addresses stable as later
// registrations grow the registry.
struct engine_node {
  explicit engine_node(smp::engine_options k) : key(k) {}
  smp::engine_options key;
  std::once_flag once;
  std::unique_ptr<smp::engine> engine;
};

struct transport_node {
  explicit transport_node(std::uint32_t r) : ranks(r) {}
  std::uint32_t ranks;
  std::once_flag once;
  std::unique_ptr<comm::transport> transport;
};

// Plan-cache key: the workload fields that enter plan_permutation plus the
// profile fingerprint (a different profile re-keys every entry).
using plan_key = std::array<std::uint64_t, 6>;

struct registry {
  std::mutex mutex;
  std::list<engine_node> engines;
  std::size_t engines_ready = 0;  // nodes whose construction completed
  std::list<transport_node> transports;

  // Plan cache.  Bounded: a multi-tenant server can see arbitrarily many
  // distinct (n, elem) shapes, so on overflow the cache is cleared rather
  // than grown without limit -- correctness never depends on a hit.
  std::mutex plan_mutex;
  std::map<plan_key, permutation_plan> plans;
  std::size_t plan_lookups = 0;
  std::size_t plan_hits = 0;
};

constexpr std::size_t kPlanCacheCapacity = 4096;

registry& instance() {
  static registry reg;
  return reg;
}

}  // namespace

smp::engine& shared_engine(const smp::engine_options& opt) {
  const smp::engine_options key = normalized(opt);
  registry& reg = instance();
  engine_node* node = nullptr;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto& n : reg.engines) {
      if (same_config(n.key, key)) {
        node = &n;
        break;
      }
    }
    if (node == nullptr) node = &reg.engines.emplace_back(key);
  }
  std::call_once(node->once, [&] {
    node->engine = std::make_unique<smp::engine>(key);
    const std::lock_guard<std::mutex> lock(reg.mutex);
    ++reg.engines_ready;
  });
  return *node->engine;
}

smp::thread_pool& shared_pool(std::uint32_t threads) {
  smp::engine_options opt;
  opt.threads = threads;
  return shared_engine(opt).pool();
}

comm::transport& shared_transport(std::uint32_t ranks) {
  if (ranks == 0) ranks = 1;
  registry& reg = instance();
  transport_node* node = nullptr;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto& n : reg.transports) {
      if (n.ranks == ranks) {
        node = &n;
        break;
      }
    }
    if (node == nullptr) node = &reg.transports.emplace_back(ranks);
  }
  std::call_once(node->once, [&] {
    if (ranks == 1) {
      node->transport = std::make_unique<comm::loopback_transport>();
    } else {
      node->transport = std::make_unique<comm::threaded_transport>(ranks);
    }
  });
  return *node->transport;
}

std::size_t registered_engine_count() {
  registry& reg = instance();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.engines_ready;
}

machine_profile shared_profile() {
  static const machine_profile detected = machine_profile::detect();
  return detected;
}

permutation_plan cached_plan(const workload& w, const machine_profile& prof) {
  const plan_key key = {w.n, w.element_bytes, w.memory_budget_bytes, w.repetitions,
                        std::bit_cast<std::uint64_t>(w.accessed_fraction),
                        prof.fingerprint()};
  registry& reg = instance();
  static obs::counter& lookups = obs::get_counter("core.plan_cache.lookups");
  static obs::counter& hits = obs::get_counter("core.plan_cache.hits");
  lookups.add();
  {
    const std::lock_guard<std::mutex> lock(reg.plan_mutex);
    ++reg.plan_lookups;
    const auto it = reg.plans.find(key);
    if (it != reg.plans.end()) {
      ++reg.plan_hits;
      hits.add();
      return it->second;
    }
  }
  // Plan outside the lock: plan_permutation is pure arithmetic, but there
  // is no reason to serialize concurrent misses on distinct shapes.  Two
  // concurrent misses on one shape insert the identical plan.
  permutation_plan plan;
  {
    const obs::span sp("resolve", "plan");
    plan = plan_permutation(w, prof);
  }
  {
    const std::lock_guard<std::mutex> lock(reg.plan_mutex);
    if (reg.plans.size() >= kPlanCacheCapacity) reg.plans.clear();
    reg.plans.emplace(key, plan);
  }
  return plan;
}

std::size_t plan_cache_lookups() {
  registry& reg = instance();
  const std::lock_guard<std::mutex> lock(reg.plan_mutex);
  return reg.plan_lookups;
}

std::size_t plan_cache_hits() {
  registry& reg = instance();
  const std::lock_guard<std::mutex> lock(reg.plan_mutex);
  return reg.plan_hits;
}

}  // namespace cgp::core
