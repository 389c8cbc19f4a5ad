#include "smp/scratch_arena.hpp"

#include <cstdint>
#include <new>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace cgp::smp {

namespace {

constexpr std::align_val_t kAlign{64};

// Namespace-scope and trivially destructible: the registry's engines free
// their arenas at exit, possibly after the metrics registry is gone.
std::mutex g_retained_mu;
std::int64_t g_retained = 0;
bool g_gauge_gone = false;

/// Mirror the bytes all arenas hold into the gauge `smp.scratch_bytes`.
void note_retained(std::int64_t delta) {
  const std::lock_guard<std::mutex> lock(g_retained_mu);
  g_retained += delta;
  if (g_gauge_gone) return;
  // Built after the metrics registry, so destroyed before it; from then
  // on the gauge is left alone.
  static struct gauge_ref {
    obs::gauge& g = obs::get_gauge("smp.scratch_bytes");
    ~gauge_ref() { g_gauge_gone = true; }
  } ref;
  ref.g.set(g_retained);
  ref.g.note_peak(g_retained);
}

}  // namespace

scratch_arena::~scratch_arena() {
  for (const slot& s : slots_) {
    CGP_ASSERT(!s.leased);
    ::operator delete(s.data, kAlign);
    note_retained(-static_cast<std::int64_t>(s.bytes));
  }
}

scratch_arena::lease::lease(scratch_arena& arena, std::size_t bytes) : arena_(arena) {
  const std::lock_guard<std::mutex> lock(arena.mu_);
  std::vector<slot>& slots = arena.slots_;
  auto fit = slots.end();
  auto largest = slots.end();
  for (auto it = slots.begin(); it != slots.end(); ++it) {
    if (it->leased) continue;
    if (it->bytes >= bytes && (fit == slots.end() || it->bytes < fit->bytes)) fit = it;
    if (largest == slots.end() || it->bytes > largest->bytes) largest = it;
  }
  if (fit == slots.end()) {
    // Nothing fits: the largest free buffer makes way for the new one.
    if (largest != slots.end()) {
      ::operator delete(largest->data, kAlign);
      note_retained(-static_cast<std::int64_t>(largest->bytes));
      slots.erase(largest);
    }
    slots.push_back({nullptr, bytes, false});
    try {
      slots.back().data = ::operator new(bytes, kAlign);
    } catch (...) {
      slots.pop_back();
      throw;
    }
    note_retained(static_cast<std::int64_t>(bytes));
    fit = slots.end() - 1;
  }
  fit->leased = true;
  data_ = fit->data;
}

scratch_arena::lease::~lease() {
  const std::lock_guard<std::mutex> lock(arena_.mu_);
  for (slot& s : arena_.slots_) {
    if (s.data == data_) s.leased = false;
  }
}

std::size_t scratch_arena::retained_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t bytes = 0;
  for (const slot& s : slots_) bytes += s.bytes;
  return bytes;
}

}  // namespace cgp::smp
