/* C binding of the coupling library, mirroring the ScaFaCoS-style interface
 * the paper describes (Sect. II-A): fcs_init / fcs_set_common / fcs_tune /
 * fcs_run / fcs_destroy plus the method-B extensions fcs_set_resort,
 * fcs_get_resort_availability, fcs_get_resort_particles and
 * fcs_resort_floats / fcs_resort_ints.
 *
 * The handle is only valid inside a sim::Engine rank body; the `comm`
 * argument is the mpi::Comm of the calling rank (passed as an opaque
 * pointer so this header stays C-compatible).
 */
#pragma once

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct FCS_s* FCS;
typedef double fcs_float;
typedef int64_t fcs_int;

typedef enum {
  FCS_SUCCESS = 0,
  FCS_ERROR_INVALID_ARGUMENT = 1,
  FCS_ERROR_LOGICAL = 2,
  FCS_ERROR_INTERNAL = 3,
  /* A peer rank was declared dead (or the communicator revoked) during the
   * call - ULFM's MPI_ERR_PROC_FAILED surfaced through the C API. The
   * handle itself stays valid; the application decides whether to shrink
   * and recover (see DESIGN.md §13) or abort. Details via
   * fcs_get_last_error_message. */
  FCS_ERR_RANK_FAILED = 4,
} FCSResult;

/* fcs_init: create a solver instance ("fmm", "pm"/"p2nfft", "direct") on
 * the communicator (an mpi::Comm*). */
FCSResult fcs_init(FCS* handle, const char* method, void* comm);

/* fcs_set_common: system box (offset + axis-aligned base vector lengths)
 * and periodicity flags. */
FCSResult fcs_set_common(FCS handle, const fcs_float* box_offset,
                         const fcs_float* box_a, const fcs_float* box_b,
                         const fcs_float* box_c, const fcs_int* periodicity);

FCSResult fcs_set_tolerance(FCS handle, fcs_float accuracy);

/* fcs_tune: optional tuning step with the current local particles. */
FCSResult fcs_tune(FCS handle, fcs_int n_local, const fcs_float* positions,
                   const fcs_float* charges);

/* fcs_set_resort: select coupling method B for subsequent fcs_run calls. */
FCSResult fcs_set_resort(FCS handle, fcs_int resort);

/* fcs_set_max_particle_move: per-step movement hint (method B). */
FCSResult fcs_set_max_particle_move(FCS handle, fcs_float max_move);

/* fcs_run: compute the interactions.
 * positions/charges: local particle data (xyzxyz... / q...), modified in
 *   place when method B returns the changed order.
 * n_local: in: current local count; out: count after the run.
 * max_local: capacity of the caller's arrays in particles.
 * potentials / field: output arrays with capacity max_local (field is
 *   xyzxyz...). */
FCSResult fcs_run(FCS handle, fcs_int* n_local, fcs_int max_local,
                  fcs_float* positions, fcs_float* charges,
                  fcs_float* potentials, fcs_float* field);

/* Paper's query function: 1 if the last run returned the changed order. */
FCSResult fcs_get_resort_availability(FCS handle, fcs_int* available);
FCSResult fcs_get_resort_particles(FCS handle, fcs_int* n_changed);

/* Subsequent reordering/redistribution of additional per-particle data:
 * `data` holds n_original * components values on entry and n_changed *
 * components on exit (capacity must be >= both). */
FCSResult fcs_resort_floats(FCS handle, fcs_float* data, fcs_int components,
                            fcs_int n_original);
FCSResult fcs_resort_ints(FCS handle, fcs_int* data, fcs_int components,
                          fcs_int n_original);

/* Last error message of a failed call (thread-local, valid until next call).
 * Prefer fcs_get_last_error_message: with several sessions per rank this
 * global reflects whichever session failed most recently. */
const char* fcs_last_error(void);

/* ScaFaCoS-style error query, per session: store a pointer to `handle`'s
 * most recent error message into *message. Each handle keeps its own text,
 * so concurrent sessions cannot clobber each other. A NULL handle queries
 * the thread-local fallback (for failures before a handle exists, e.g. a
 * failed fcs_init). The pointer is valid until the next API call on the
 * same handle (or, for NULL, on this thread). */
FCSResult fcs_get_last_error_message(FCS handle, const char** message);

FCSResult fcs_destroy(FCS handle);

#ifdef __cplusplus
}
#endif
