#include "md/integrator.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace md {

using domain::Vec3;

double advance_positions(LocalParticles& particles, const domain::Box& box,
                         double dt) {
  FCS_CHECK(particles.vel.size() == particles.size() &&
                particles.acc.size() == particles.size(),
            "inconsistent particle arrays");
  double max_move2 = 0.0;
  for (std::size_t i = 0; i < particles.size(); ++i) {
    const Vec3 step =
        particles.vel[i] * dt + particles.acc[i] * (0.5 * dt * dt);
    max_move2 = std::max(max_move2, step.norm2());
    particles.pos[i] = box.wrap(particles.pos[i] + step);
  }
  return std::sqrt(max_move2);
}

void advance_velocities(LocalParticles& particles,
                        const std::vector<Vec3>& new_acc, double dt) {
  FCS_CHECK(new_acc.size() == particles.size(),
            "acceleration array size mismatch");
  for (std::size_t i = 0; i < new_acc.size(); ++i) {
    particles.vel[i] += (particles.acc[i] + new_acc[i]) * (0.5 * dt);
    particles.acc[i] = new_acc[i];
  }
}

std::vector<Vec3> accelerations_from_field(const std::vector<double>& charges,
                                           const std::vector<Vec3>& field) {
  FCS_CHECK(charges.size() == field.size(), "charges/field size mismatch");
  std::vector<Vec3> acc(field.size());
  for (std::size_t i = 0; i < field.size(); ++i)
    acc[i] = field[i] * charges[i];
  return acc;
}

double kinetic_energy(const LocalParticles& particles) {
  double e = 0.0;
  for (const Vec3& v : particles.vel) e += 0.5 * v.norm2();
  return e;
}

}  // namespace md
