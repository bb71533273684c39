// Tests of the C binding: the paper's literal interface contract.
#include <gtest/gtest.h>

#include <vector>

#include "fcs/fcs_c.h"
#include "md/system.hpp"
#include "spmd_test_util.hpp"

using fcs_test::run_ranks;

namespace {

struct CSystem {
  std::vector<double> pos;  // xyzxyz...
  std::vector<double> q;
  fcs_int n = 0;
};

CSystem make_local_system(const mpi::Comm& c, std::size_t n_global) {
  md::SystemConfig sys;
  sys.box = domain::Box({0, 0, 0}, {10, 10, 10}, {true, true, true});
  sys.n_global = n_global;
  sys.distribution = md::InitialDistribution::kRandom;
  md::LocalParticles lp = md::generate_system(c, sys);
  CSystem out;
  out.n = static_cast<fcs_int>(lp.size());
  for (std::size_t i = 0; i < lp.size(); ++i) {
    out.pos.push_back(lp.pos[i].x);
    out.pos.push_back(lp.pos[i].y);
    out.pos.push_back(lp.pos[i].z);
    out.q.push_back(lp.q[i]);
  }
  return out;
}

void set_common_cube(FCS handle, double extent, bool periodic) {
  const double off[3] = {0, 0, 0};
  const double a[3] = {extent, 0, 0};
  const double b[3] = {0, extent, 0};
  const double cc[3] = {0, 0, extent};
  const fcs_int per[3] = {periodic, periodic, periodic};
  ASSERT_EQ(fcs_set_common(handle, off, a, b, cc, per), FCS_SUCCESS);
}

TEST(CApi, InitRejectsBadArguments) {
  run_ranks(1, [](mpi::Comm& c) {
    FCS handle = nullptr;
    EXPECT_EQ(fcs_init(&handle, "nosuch", &c), FCS_ERROR_LOGICAL);
    EXPECT_NE(std::string(fcs_last_error()).find("nosuch"), std::string::npos);
    EXPECT_EQ(fcs_init(nullptr, "pm", &c), FCS_ERROR_INVALID_ARGUMENT);
  });
}

TEST(CApi, MethodARoundTrip) {
  run_ranks(4, [](mpi::Comm& c) {
    CSystem s = make_local_system(c, 6 * 6 * 6);
    FCS handle = nullptr;
    ASSERT_EQ(fcs_init(&handle, "pm", &c), FCS_SUCCESS);
    set_common_cube(handle, 10, true);
    ASSERT_EQ(fcs_set_tolerance(handle, 1e-2), FCS_SUCCESS);
    ASSERT_EQ(fcs_tune(handle, s.n, s.pos.data(), s.q.data()), FCS_SUCCESS);

    const fcs_int cap = s.n;
    std::vector<double> phi(static_cast<std::size_t>(cap));
    std::vector<double> field(static_cast<std::size_t>(3 * cap));
    fcs_int n = s.n;
    const auto pos_before = s.pos;
    ASSERT_EQ(fcs_run(handle, &n, cap, s.pos.data(), s.q.data(), phi.data(),
                      field.data()),
              FCS_SUCCESS);
    EXPECT_EQ(n, s.n);
    EXPECT_EQ(s.pos, pos_before);  // method A keeps the order
    fcs_int avail = -1;
    ASSERT_EQ(fcs_get_resort_availability(handle, &avail), FCS_SUCCESS);
    EXPECT_EQ(avail, 0);
    ASSERT_EQ(fcs_destroy(handle), FCS_SUCCESS);
  });
}

TEST(CApi, MethodBWithResort) {
  run_ranks(4, [](mpi::Comm& c) {
    CSystem s = make_local_system(c, 6 * 6 * 6);
    FCS handle = nullptr;
    ASSERT_EQ(fcs_init(&handle, "pm", &c), FCS_SUCCESS);
    set_common_cube(handle, 10, true);
    ASSERT_EQ(fcs_set_tolerance(handle, 1e-2), FCS_SUCCESS);
    ASSERT_EQ(fcs_tune(handle, s.n, s.pos.data(), s.q.data()), FCS_SUCCESS);
    ASSERT_EQ(fcs_set_resort(handle, 1), FCS_SUCCESS);

    const fcs_int cap = 4 * s.n + 64;
    s.pos.resize(static_cast<std::size_t>(3 * cap));
    s.q.resize(static_cast<std::size_t>(cap));
    std::vector<double> phi(static_cast<std::size_t>(cap));
    std::vector<double> field(static_cast<std::size_t>(3 * cap));

    // Per-particle labels to resort afterwards.
    std::vector<fcs_int> labels(static_cast<std::size_t>(cap));
    for (fcs_int i = 0; i < s.n; ++i)
      labels[static_cast<std::size_t>(i)] = 100 * c.rank() + i;

    fcs_int n = s.n;
    ASSERT_EQ(fcs_run(handle, &n, cap, s.pos.data(), s.q.data(), phi.data(),
                      field.data()),
              FCS_SUCCESS);
    fcs_int avail = 0, n_changed = 0;
    ASSERT_EQ(fcs_get_resort_availability(handle, &avail), FCS_SUCCESS);
    EXPECT_EQ(avail, 1);
    ASSERT_EQ(fcs_get_resort_particles(handle, &n_changed), FCS_SUCCESS);
    EXPECT_EQ(n_changed, n);

    const fcs_int n_original =
        static_cast<fcs_int>(make_local_system(c, 6 * 6 * 6).n);
    ASSERT_EQ(fcs_resort_ints(handle, labels.data(), 1, n_original),
              FCS_SUCCESS);
    // All labels still name valid origins.
    for (fcs_int i = 0; i < n_changed; ++i) {
      const fcs_int src = labels[static_cast<std::size_t>(i)] / 100;
      EXPECT_GE(src, 0);
      EXPECT_LT(src, c.size());
    }

    // Global count preserved.
    const auto total =
        c.allreduce(static_cast<std::uint64_t>(n), mpi::OpSum{});
    EXPECT_EQ(total, 216u);
    ASSERT_EQ(fcs_destroy(handle), FCS_SUCCESS);
  });
}

TEST(CApi, ResortWithoutMethodBFails) {
  run_ranks(2, [](mpi::Comm& c) {
    CSystem s = make_local_system(c, 4 * 4 * 4);
    FCS handle = nullptr;
    ASSERT_EQ(fcs_init(&handle, "pm", &c), FCS_SUCCESS);
    set_common_cube(handle, 10, true);
    ASSERT_EQ(fcs_tune(handle, s.n, s.pos.data(), s.q.data()), FCS_SUCCESS);
    std::vector<double> phi(static_cast<std::size_t>(s.n));
    std::vector<double> field(static_cast<std::size_t>(3 * s.n));
    fcs_int n = s.n;
    ASSERT_EQ(fcs_run(handle, &n, s.n, s.pos.data(), s.q.data(), phi.data(),
                      field.data()),
              FCS_SUCCESS);
    std::vector<double> extra(static_cast<std::size_t>(s.n), 1.0);
    EXPECT_EQ(fcs_resort_floats(handle, extra.data(), 1, s.n),
              FCS_ERROR_LOGICAL);
    ASSERT_EQ(fcs_destroy(handle), FCS_SUCCESS);
  });
}

TEST(CApi, ErrorMessagesAreIsolatedPerSession) {
  // With several sessions on one rank, one session's failure must not
  // clobber another's retrievable message (the ScaFaCoS-style
  // fcs_get_last_error_message contract, as opposed to the thread-local
  // fcs_last_error fallback which always reflects the most recent failure).
  run_ranks(2, [](mpi::Comm& c) {
    FCS h1 = nullptr;
    FCS h2 = nullptr;
    ASSERT_EQ(fcs_init(&h1, "pm", &c), FCS_SUCCESS);
    ASSERT_EQ(fcs_init(&h2, "pm", &c), FCS_SUCCESS);

    // Fail h1 only: resort queries without a method-B run are a logic error.
    double dummy = 0.0;
    ASSERT_EQ(fcs_resort_floats(h1, &dummy, 1, 0), FCS_ERROR_LOGICAL);
    const char* m1 = nullptr;
    ASSERT_EQ(fcs_get_last_error_message(h1, &m1), FCS_SUCCESS);
    EXPECT_NE(std::string(m1), "");
    const char* m2 = nullptr;
    ASSERT_EQ(fcs_get_last_error_message(h2, &m2), FCS_SUCCESS);
    EXPECT_EQ(std::string(m2), "");  // h2 never failed

    // Fail h2 differently: each handle keeps its own text.
    ASSERT_EQ(fcs_resort_ints(h2, nullptr, 1, 0), FCS_ERROR_INVALID_ARGUMENT);
    ASSERT_EQ(fcs_get_last_error_message(h2, &m2), FCS_SUCCESS);
    ASSERT_EQ(fcs_get_last_error_message(h1, &m1), FCS_SUCCESS);
    EXPECT_NE(std::string(m2), "");
    EXPECT_NE(std::string(m1), std::string(m2));

    // The NULL-handle query and the legacy global reflect the most recent
    // failure on this thread, whichever session it belonged to.
    const char* mg = nullptr;
    ASSERT_EQ(fcs_get_last_error_message(nullptr, &mg), FCS_SUCCESS);
    EXPECT_EQ(std::string(mg), std::string(m2));
    EXPECT_EQ(std::string(fcs_last_error()), std::string(m2));

    ASSERT_EQ(fcs_destroy(h1), FCS_SUCCESS);
    ASSERT_EQ(fcs_destroy(h2), FCS_SUCCESS);
  });
}

TEST(CApi, RunReportsRankFailure) {
  // Rank 1 crashes mid-run (sim fault injection); rank 0's next fcs_run
  // must surface ULFM's "process failed" as FCS_ERR_RANK_FAILED with a
  // retrievable message, instead of hanging or aborting.
  //
  // The crashed rank's fiber unwinds without ever reaching its own
  // fcs_destroy call, so the handle must be released by a guard or the
  // (shared-process) simulator leaks it - LeakSanitizer enforces this.
  struct HandleGuard {
    FCS h = nullptr;
    ~HandleGuard() {
      if (h != nullptr) fcs_destroy(h);
    }
  };
  sim::EngineConfig ecfg = fcs_test::engine_config(2);
  ecfg.fault_plan.crashes.push_back({1, 1.0e-4});
  sim::run_spmd(ecfg, [](sim::RankCtx& ctx) {
    mpi::Comm c = mpi::Comm::world(ctx);
    CSystem s = make_local_system(c, 4 * 4 * 4);
    FCS handle = nullptr;
    ASSERT_EQ(fcs_init(&handle, "pm", &c), FCS_SUCCESS);
    HandleGuard guard{handle};
    set_common_cube(handle, 10, true);
    ASSERT_EQ(fcs_set_tolerance(handle, 1e-2), FCS_SUCCESS);
    std::vector<double> phi(static_cast<std::size_t>(s.n));
    std::vector<double> field(static_cast<std::size_t>(3 * s.n));
    // Keep running until rank 1's crash time passes. Rank 1 dies INSIDE an
    // fcs_run (the engine's kill marker must unwind through the C API's
    // exception barrier); rank 0 then blocks on the dead peer and gets the
    // failure code.
    FCSResult rc = FCS_SUCCESS;
    for (int i = 0; i < 200 && rc == FCS_SUCCESS; ++i) {
      fcs_int n = s.n;
      rc = i == 0 ? fcs_tune(handle, s.n, s.pos.data(), s.q.data())
                  : fcs_run(handle, &n, s.n, s.pos.data(), s.q.data(),
                            phi.data(), field.data());
    }
    // Only rank 0 reaches this point; the crashed rank's fiber is unwound.
    EXPECT_EQ(c.rank(), 0);
    EXPECT_EQ(rc, FCS_ERR_RANK_FAILED);
    const char* message = nullptr;
    ASSERT_EQ(fcs_get_last_error_message(handle, &message), FCS_SUCCESS);
    ASSERT_NE(message, nullptr);
    // The message names the failed peer.
    EXPECT_NE(std::string(message).find("1"), std::string::npos) << message;
    EXPECT_NE(std::string(message).find("fail"), std::string::npos) << message;
    guard.h = nullptr;
    ASSERT_EQ(fcs_destroy(handle), FCS_SUCCESS);
  });
}

}  // namespace
