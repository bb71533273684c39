// Shared helpers for tests that run SPMD rank bodies on the sim engine.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "minimpi/comm.hpp"
#include "sim/engine.hpp"
#include "support/serialize.hpp"

namespace fcs_test {

/// A fault-free engine config for `nranks` ranks that keeps the
/// environment's conservation validation (FCS_REDIST_VALIDATE), for tests
/// that set up their own engine (recorder, network, fault plan).
inline sim::EngineConfig engine_config(int nranks) {
  sim::EngineConfig cfg;
  cfg.nranks = nranks;
  cfg.validate = sim::EngineConfig::from_env().validate;
  return cfg;
}

/// Run `body` across `nranks` simulated ranks on an ideal network and return
/// the engine makespan. Exceptions from any rank propagate to the caller.
/// Starts from sim::EngineConfig::from_env(), so CI can replay the whole
/// suite under deterministic fault injection and conservation validation
/// (see .github/workflows/ci.yml).
inline double run_ranks(int nranks,
                        const std::function<void(mpi::Comm&)>& body,
                        std::shared_ptr<const sim::NetworkModel> net = nullptr) {
  sim::EngineConfig cfg = sim::EngineConfig::from_env();
  cfg.nranks = nranks;
  if (net) cfg.network = std::move(net);
  return sim::run_spmd(cfg, [&body](sim::RankCtx& ctx) {
    mpi::Comm comm = mpi::Comm::world(ctx);
    body(comm);
  });
}

/// Checkpoint `obj` the way md's buddy checkpoint does: a measuring
/// save(ByteWriter&) pass sizes the blob exactly, a second pass fills it.
template <class T>
std::vector<std::byte> save_blob(const T& obj) {
  fcs::ByteWriter measure;
  obj.save(measure);
  std::vector<std::byte> blob(measure.size());
  fcs::ByteWriter w(blob.data(), blob.size());
  obj.save(w);
  return blob;
}

}  // namespace fcs_test
