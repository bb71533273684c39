// Second-order leapfrog (velocity Verlet) integration, paper Eqs. (1)-(2):
//   x_{i+1} = x_i + v_i dt + 1/2 a_i dt^2
//   v_{i+1} = v_i + 1/2 (a_i + a_{i+1}) dt
// Unit masses; the acceleration of a particle is q * E from the solver.
#pragma once

#include "md/system.hpp"

namespace md {

/// Advance positions (Eq. 1) and return the maximum displacement of any
/// LOCAL particle this step (the paper's "maximum movement" the application
/// can hand to the solver). Positions are wrapped into the box afterwards.
double advance_positions(LocalParticles& particles, const domain::Box& box,
                         double dt);

/// Finish the step (Eq. 2) once the new accelerations are known.
void advance_velocities(LocalParticles& particles,
                        const std::vector<domain::Vec3>& new_acc, double dt);

/// Accelerations from solver fields: a_i = q_i * E_i (unit mass).
std::vector<domain::Vec3> accelerations_from_field(
    const std::vector<double>& charges,
    const std::vector<domain::Vec3>& field);

/// Kinetic energy of the local particles (unit mass).
double kinetic_energy(const LocalParticles& particles);

}  // namespace md
