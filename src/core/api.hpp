// core/api.hpp
//
// Umbrella header: the public API of cgmperm, curated.
//
// The one object most callers need is the context facade:
//
//   #include "core/api.hpp"
//
//   cgp::context ctx;                         // planner-driven defaults
//   std::vector<std::uint64_t> v = ...;
//   auto plan = ctx.shuffle(std::span<std::uint64_t>(v));
//
// Everything else is exported in layers, facade first:
//
//   facade      cgp::context (core/context.hpp) -- owns profile,
//               transport, registry access, seed discipline; the one
//               call that runs a permutation (an injected profile goes in
//               through context_options::engine.profile)
//   planning    core::plan_permutation, machine_profile (core/plan.hpp);
//               core::resolve_plan (core/executor.hpp) + the plan cache
//               (core/registry.hpp)
//   execution   core::executor, the per-backend executors and
//               make_executor (core/executor.hpp), engine registry
//               (core/registry.hpp)
//   transport   comm::transport / loopback / threaded (comm/transport.hpp)
//   engines     smp::engine, em::async_em_shuffle, cgm::distributed_shuffle,
//               prp::cipher, seq::* reference shuffles
//   simulator   cgm::machine + Algorithm 1 (model-faithful accounting),
//               driven by core::permute_global (core/driver.hpp) and
//               core::permutation_stream (core/repeat.hpp) -- not a
//               backend; the layers above never include it
//
// See README.md for the architecture overview and examples/ for runnable
// programs.
#pragma once

// NOTE: the multi-tenant service layer (src/svc/) sits ABOVE this
// umbrella -- include "svc/server.hpp" explicitly to use it.  Exporting
// it from here would invert the layering (core must not depend on what
// is built on top of it).

// --- the facade ----------------------------------------------------------
#include "core/context.hpp"      // IWYU pragma: export

// --- the plan/executor core ----------------------------------------------
#include "core/apply.hpp"        // IWYU pragma: export
#include "core/executor.hpp"     // IWYU pragma: export
#include "core/plan.hpp"         // IWYU pragma: export
#include "core/registry.hpp"     // IWYU pragma: export

// --- the transport layer -------------------------------------------------
#include "comm/transport.hpp"    // IWYU pragma: export

// --- engines -------------------------------------------------------------
#include "cgm/distributed.hpp"   // IWYU pragma: export
#include "em/async_shuffle.hpp"  // IWYU pragma: export
#include "em/block_device.hpp"   // IWYU pragma: export
#include "em/naive_shuffle.hpp"  // IWYU pragma: export
#include "prp/cipher.hpp"        // IWYU pragma: export
#include "prp/shard.hpp"         // IWYU pragma: export
#include "seq/blocked_shuffle.hpp"  // IWYU pragma: export
#include "seq/fisher_yates.hpp"  // IWYU pragma: export
#include "seq/rao_sandelius.hpp"  // IWYU pragma: export
#include "smp/engine.hpp"        // IWYU pragma: export
#include "smp/parallel_split.hpp"  // IWYU pragma: export
#include "smp/thread_pool.hpp"   // IWYU pragma: export

// --- the model-faithful simulator world ----------------------------------
#include "cgm/collectives.hpp"   // IWYU pragma: export
#include "cgm/cost.hpp"          // IWYU pragma: export
#include "cgm/machine.hpp"       // IWYU pragma: export
#include "cgm/pro.hpp"           // IWYU pragma: export
#include "cgm/sample_sort.hpp"   // IWYU pragma: export
#include "core/comm_matrix.hpp"  // IWYU pragma: export
#include "core/driver.hpp"       // IWYU pragma: export
#include "core/parallel_matrix.hpp"  // IWYU pragma: export
#include "core/permute.hpp"      // IWYU pragma: export
#include "core/repeat.hpp"       // IWYU pragma: export
#include "core/routing.hpp"      // IWYU pragma: export
#include "core/sample_matrix.hpp"  // IWYU pragma: export
#include "core/sort_permute.hpp"  // IWYU pragma: export

// --- samplers ------------------------------------------------------------
#include "hyp/multivariate.hpp"  // IWYU pragma: export
#include "hyp/sample.hpp"        // IWYU pragma: export
