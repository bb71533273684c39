#include "fcs/fcs_c.h"

#include <cstring>
#include <string>

#include "fcs/fcs.hpp"

// The C handle wraps the C++ Fcs object plus the sticky run options the
// C-style setters accumulate (fcs_set_resort / fcs_set_max_particle_move).
struct FCS_s {
  fcs::Fcs impl;
  fcs::RunOptions options;
  // Per-session error text (see fcs_get_last_error_message): several
  // sessions on one rank must not clobber each other's message, so each
  // handle keeps its own copy in addition to the thread-local fallback used
  // before a handle exists.
  std::string last_error;

  FCS_s(const mpi::Comm& comm, const char* method) : impl(comm, method) {}
};

namespace {

thread_local std::string g_last_error;

// Record an error message on the owning session (when one exists) AND in the
// thread-local fallback that serves handle-less queries.
void set_error(FCS handle, const char* message) {
  if (handle != nullptr) handle->last_error = message;
  g_last_error = message;
}

// Every entry point runs through here: no C++ exception may cross the
// extern "C" boundary (that is undefined behavior), so everything throwable
// is converted to an FCSResult code plus a retrievable message stored on the
// session the call belongs to (null before fcs_init succeeds).
template <class Fn>
FCSResult guarded(FCS handle, Fn&& fn) {
  try {
    fn();
    return FCS_SUCCESS;
  } catch (const sim::RankCrashed&) {
    // This rank itself is the one crashing (sim fault injection): the
    // engine's kill marker must reach the fiber root, or the dead rank
    // would keep running as a zombie behind the engine's back.
    throw;
  } catch (const sim::RankFailedError& e) {
    // Must precede fcs::Error: RankFailedError derives from it, and the
    // caller needs the distinct code to start a shrink/recover cycle.
    set_error(handle, e.what());
    return FCS_ERR_RANK_FAILED;
  } catch (const fcs::Error& e) {
    set_error(handle, e.what());
    return FCS_ERROR_LOGICAL;
  } catch (const std::exception& e) {
    set_error(handle, e.what());
    return FCS_ERROR_INTERNAL;
  } catch (...) {
    set_error(handle, "unknown non-standard exception");
    return FCS_ERROR_INTERNAL;
  }
}

FCSResult require(FCS handle, bool cond, const char* message) {
  if (cond) return FCS_SUCCESS;
  set_error(handle, message);
  return FCS_ERROR_INVALID_ARGUMENT;
}

std::vector<domain::Vec3> to_vec3(const fcs_float* xyz, fcs_int n) {
  std::vector<domain::Vec3> out(static_cast<std::size_t>(n));
  for (fcs_int i = 0; i < n; ++i)
    out[static_cast<std::size_t>(i)] = {xyz[3 * i], xyz[3 * i + 1],
                                        xyz[3 * i + 2]};
  return out;
}

void from_vec3(const std::vector<domain::Vec3>& in, fcs_float* xyz) {
  for (std::size_t i = 0; i < in.size(); ++i) {
    xyz[3 * i] = in[i].x;
    xyz[3 * i + 1] = in[i].y;
    xyz[3 * i + 2] = in[i].z;
  }
}

}  // namespace

extern "C" {

FCSResult fcs_init(FCS* handle, const char* method, void* comm) {
  if (auto r = require(nullptr, handle && method && comm,
                       "fcs_init: null argument"))
    return r;
  if (auto r = require(nullptr, method[0] != '\0',
                       "fcs_init: empty method name"))
    return r;
  return guarded(nullptr, [&] {
    *handle = new FCS_s(*static_cast<mpi::Comm*>(comm), method);
  });
}

FCSResult fcs_set_common(FCS handle, const fcs_float* box_offset,
                         const fcs_float* box_a, const fcs_float* box_b,
                         const fcs_float* box_c, const fcs_int* periodicity) {
  if (auto r = require(handle, handle && box_offset && box_a && box_b && box_c &&
                           periodicity,
                       "fcs_set_common: null argument"))
    return r;
  return guarded(handle, [&] {
    const domain::Box box = domain::Box::from_base_vectors(
        {box_offset[0], box_offset[1], box_offset[2]},
        {box_a[0], box_a[1], box_a[2]}, {box_b[0], box_b[1], box_b[2]},
        {box_c[0], box_c[1], box_c[2]},
        {periodicity[0] != 0, periodicity[1] != 0, periodicity[2] != 0});
    handle->impl.set_common(box);
  });
}

FCSResult fcs_set_tolerance(FCS handle, fcs_float accuracy) {
  if (auto r = require(handle, handle != nullptr, "fcs_set_tolerance: null handle"))
    return r;
  return guarded(handle, [&] { handle->impl.set_accuracy(accuracy); });
}

FCSResult fcs_tune(FCS handle, fcs_int n_local, const fcs_float* positions,
                   const fcs_float* charges) {
  if (auto r = require(handle, handle && n_local >= 0 && (n_local == 0 || (positions && charges)),
                       "fcs_tune: bad arguments"))
    return r;
  return guarded(handle, [&] {
    const auto pos = to_vec3(positions, n_local);
    const std::vector<double> q(charges, charges + n_local);
    handle->impl.tune(pos, q);
  });
}

FCSResult fcs_set_resort(FCS handle, fcs_int resort) {
  if (auto r = require(handle, handle != nullptr, "fcs_set_resort: null handle"))
    return r;
  return guarded(handle, [&] { handle->options.resort = resort != 0; });
}

FCSResult fcs_set_max_particle_move(FCS handle, fcs_float max_move) {
  if (auto r = require(handle, handle != nullptr,
                       "fcs_set_max_particle_move: null handle"))
    return r;
  // Any negative value means "unknown"; NaN is a caller bug.
  if (auto r = require(handle, max_move == max_move,
                       "fcs_set_max_particle_move: NaN max_move"))
    return r;
  return guarded(handle, [&] { handle->options.max_particle_move = max_move; });
}

FCSResult fcs_run(FCS handle, fcs_int* n_local, fcs_int max_local,
                  fcs_float* positions, fcs_float* charges,
                  fcs_float* potentials, fcs_float* field) {
  if (auto r = require(handle, handle && n_local && *n_local >= 0 &&
                           max_local >= *n_local && positions && charges &&
                           potentials && field,
                       "fcs_run: bad arguments"))
    return r;
  return guarded(handle, [&] {
    std::vector<domain::Vec3> pos = to_vec3(positions, *n_local);
    std::vector<double> q(charges, charges + *n_local);
    std::vector<double> phi;
    std::vector<domain::Vec3> e;
    fcs::RunOptions opts = handle->options;
    opts.max_local = static_cast<std::size_t>(max_local);
    const fcs::RunResult rr = handle->impl.run(pos, q, phi, e, opts);
    FCS_CHECK(rr.n_local <= static_cast<std::size_t>(max_local),
              "fcs_run: result exceeds max_local");
    from_vec3(pos, positions);
    std::memcpy(charges, q.data(), q.size() * sizeof(double));
    std::memcpy(potentials, phi.data(), phi.size() * sizeof(double));
    from_vec3(e, field);
    *n_local = static_cast<fcs_int>(rr.n_local);
  });
}

FCSResult fcs_get_resort_availability(FCS handle, fcs_int* available) {
  if (auto r = require(handle, handle && available,
                       "fcs_get_resort_availability: null argument"))
    return r;
  return guarded(
      handle, [&] { *available = handle->impl.last_run_resorted() ? 1 : 0; });
}

FCSResult fcs_get_resort_particles(FCS handle, fcs_int* n_changed) {
  if (auto r = require(handle, handle && n_changed,
                       "fcs_get_resort_particles: null argument"))
    return r;
  return guarded(handle, [&] {
    *n_changed = static_cast<fcs_int>(handle->impl.resort_particle_count());
  });
}

FCSResult fcs_resort_floats(FCS handle, fcs_float* data, fcs_int components,
                            fcs_int n_original) {
  if (auto r = require(handle, handle && data && components > 0 && n_original >= 0,
                       "fcs_resort_floats: bad arguments"))
    return r;
  return guarded(handle, [&] {
    std::vector<double> values(
        data, data + static_cast<std::size_t>(n_original * components));
    handle->impl.resort_floats(values, static_cast<std::size_t>(components));
    std::memcpy(data, values.data(), values.size() * sizeof(double));
  });
}

FCSResult fcs_resort_ints(FCS handle, fcs_int* data, fcs_int components,
                          fcs_int n_original) {
  if (auto r = require(handle, handle && data && components > 0 && n_original >= 0,
                       "fcs_resort_ints: bad arguments"))
    return r;
  return guarded(handle, [&] {
    std::vector<std::int64_t> values(
        data, data + static_cast<std::size_t>(n_original * components));
    handle->impl.resort_ints(values, static_cast<std::size_t>(components));
    std::memcpy(data, values.data(), values.size() * sizeof(std::int64_t));
  });
}

const char* fcs_last_error(void) { return g_last_error.c_str(); }

FCSResult fcs_get_last_error_message(FCS handle, const char** message) {
  if (auto r = require(handle, message != nullptr,
                       "fcs_get_last_error_message: null argument"))
    return r;
  // Null handle: the caller has no session yet (e.g. fcs_init itself
  // failed); fall back to the thread-local store those paths write.
  *message =
      handle != nullptr ? handle->last_error.c_str() : g_last_error.c_str();
  return FCS_SUCCESS;
}

FCSResult fcs_destroy(FCS handle) {
  // The handle is being torn down: its error storage dies with it, so the
  // exception barrier reports through the thread-local store only.
  return guarded(nullptr, [&] { delete handle; });
}

}  // extern "C"
