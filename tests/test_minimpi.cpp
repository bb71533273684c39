#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "minimpi/cart.hpp"
#include "minimpi/comm.hpp"
#include "spmd_test_util.hpp"

using fcs_test::run_ranks;

namespace {

// Rank counts swept by the parameterized collective tests: powers of two,
// odd counts, primes, and 1.
class Collectives : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankCounts, Collectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 32));

TEST_P(Collectives, Barrier) {
  run_ranks(GetParam(), [](mpi::Comm& c) {
    for (int i = 0; i < 3; ++i) c.barrier();
  });
}

TEST_P(Collectives, BcastFromEveryRoot) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> data(5, c.rank() == root ? 100 + root : -1);
      c.bcast(data.data(), data.size(), root);
      for (int v : data) EXPECT_EQ(v, 100 + root);
    }
  });
}

TEST_P(Collectives, AllreduceSumMinMax) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    const int r = c.rank();
    EXPECT_EQ(c.allreduce(r + 1, mpi::OpSum{}), p * (p + 1) / 2);
    EXPECT_EQ(c.allreduce(r, mpi::OpMin{}), 0);
    EXPECT_EQ(c.allreduce(r, mpi::OpMax{}), p - 1);
    const double x = 0.5 * (r + 1);
    EXPECT_DOUBLE_EQ(c.allreduce(x, mpi::OpMax{}), 0.5 * p);
  });
}

TEST_P(Collectives, ReduceVectorToEveryRoot) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    for (int root = 0; root < p; ++root) {
      std::vector<long long> in = {c.rank() + 0LL, c.rank() * 2LL};
      std::vector<long long> out(2, -1);
      c.reduce(in.data(), out.data(), 2, root, mpi::OpSum{});
      if (c.rank() == root) {
        const long long s = 1LL * p * (p - 1) / 2;
        EXPECT_EQ(out[0], s);
        EXPECT_EQ(out[1], 2 * s);
      }
    }
  });
}

TEST_P(Collectives, Allgather) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    struct Pair {
      int a, b;
    };
    const Pair mine{c.rank(), c.rank() * c.rank()};
    std::vector<Pair> all(p);
    c.allgather(&mine, 1, all.data());
    for (int i = 0; i < p; ++i) {
      EXPECT_EQ(all[i].a, i);
      EXPECT_EQ(all[i].b, i * i);
    }
  });
}

TEST_P(Collectives, AllgathervVaryingSizes) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    const int r = c.rank();
    // Rank r contributes r elements (rank 0 contributes none).
    std::vector<int> mine(r, 1000 + r);
    std::vector<std::size_t> counts(p);
    for (int i = 0; i < p; ++i) counts[i] = static_cast<std::size_t>(i);
    std::vector<int> all(static_cast<std::size_t>(p) * (p - 1) / 2);
    c.allgatherv(mine.data(), counts, all.data());
    std::size_t pos = 0;
    for (int i = 0; i < p; ++i)
      for (int j = 0; j < i; ++j) EXPECT_EQ(all[pos++], 1000 + i);
  });
}

TEST_P(Collectives, AlltoallMatchesExpectation) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    const int r = c.rank();
    // Block for rank i encodes (sender, receiver).
    std::vector<long long> in(p), out(p, -1);
    for (int i = 0; i < p; ++i) in[i] = 1000LL * r + i;
    c.alltoall(in.data(), 1, out.data());
    for (int i = 0; i < p; ++i) EXPECT_EQ(out[i], 1000LL * i + r);
  });
}

TEST_P(Collectives, AlltoallMultiElementBlocks) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    const int r = c.rank();
    std::vector<int> in(3 * p), out(3 * p, -1);
    for (int i = 0; i < p; ++i)
      for (int k = 0; k < 3; ++k) in[3 * i + k] = 100 * r + 10 * i + k;
    c.alltoall(in.data(), 3, out.data());
    for (int i = 0; i < p; ++i)
      for (int k = 0; k < 3; ++k) EXPECT_EQ(out[3 * i + k], 100 * i + 10 * r + k);
  });
}

TEST_P(Collectives, AlltoallvTriangularLoad) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    const int r = c.rank();
    // Rank r sends i copies of (r*100+i) to each rank i.
    std::vector<std::size_t> send_counts(p);
    std::vector<int> payload;
    for (int i = 0; i < p; ++i) {
      send_counts[i] = static_cast<std::size_t>(i);
      for (int k = 0; k < i; ++k) payload.push_back(100 * r + i);
    }
    std::vector<std::size_t> recv_counts;
    std::vector<int> got = c.alltoallv(payload.data(), send_counts, recv_counts);
    ASSERT_EQ(recv_counts.size(), static_cast<std::size_t>(p));
    std::size_t pos = 0;
    for (int i = 0; i < p; ++i) {
      EXPECT_EQ(recv_counts[i], static_cast<std::size_t>(r));
      for (std::size_t k = 0; k < recv_counts[i]; ++k)
        EXPECT_EQ(got[pos++], 100 * i + r);
    }
    EXPECT_EQ(pos, got.size());
  });
}

TEST_P(Collectives, SparseAlltoallvMatchesDense) {
  const int p = GetParam();
  run_ranks(p, [p](mpi::Comm& c) {
    const int r = c.rank();
    // Sparse pattern: send only to (r+1)%p and (r+3)%p.
    std::vector<std::size_t> send_counts(p, 0);
    std::vector<long long> payload;
    for (int off : {1, 3}) {
      const int dst = (r + off) % p;
      send_counts[dst] += 2;
    }
    // Build the payload in destination-rank order.
    for (int dst = 0; dst < p; ++dst)
      for (std::size_t k = 0; k < send_counts[dst]; ++k)
        payload.push_back(1000LL * r + dst);
    std::vector<std::size_t> recv_counts;
    std::vector<long long> got =
        c.sparse_alltoallv(payload.data(), send_counts, recv_counts);
    std::size_t pos = 0;
    for (int src = 0; src < p; ++src) {
      for (std::size_t k = 0; k < recv_counts[src]; ++k) {
        EXPECT_EQ(got[pos++], 1000LL * src + r);
      }
    }
    // Total received must equal total sent to me.
    std::size_t expected = 0;
    for (int src = 0; src < p; ++src)
      for (int off : {1, 3})
        if ((src + off) % p == r) expected += 2;
    EXPECT_EQ(got.size(), expected);
  });
}

TEST_P(Collectives, ScanAndExscan) {
  const int p = GetParam();
  run_ranks(p, [](mpi::Comm& c) {
    const int r = c.rank();
    EXPECT_EQ(c.exscan(r + 1, mpi::OpSum{}), r * (r + 1) / 2);
  });
}

TEST(MiniMpi, PointToPointTypedRoundTrip) {
  run_ranks(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> xs = {1.5, 2.5, 3.5};
      c.send(xs.data(), xs.size(), 1, 42);
      auto echoed = c.recv_vec<double>(1, 43);
      EXPECT_EQ(echoed, xs);
    } else {
      mpi::Status st{};
      auto xs = c.recv_vec<double>(0, 42, &st);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.count<double>(), 3u);
      c.send(xs.data(), xs.size(), 0, 43);
    }
  });
}

TEST(MiniMpi, RecvIntoTooSmallBufferThrows) {
  EXPECT_THROW(run_ranks(2,
                         [](mpi::Comm& c) {
                           if (c.rank() == 0) {
                             std::vector<int> big(10, 1);
                             c.send(big.data(), big.size(), 1, 0);
                           } else {
                             int small[2];
                             c.recv(small, 2, 0, 0);
                           }
                         }),
               fcs::Error);
}

TEST(MiniMpi, AnySourceAnyTag) {
  run_ranks(3, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      int got = 0;
      for (int i = 0; i < 2; ++i) {
        mpi::Status st{};
        auto v = c.recv_vec<int>(mpi::kAnySource, mpi::kAnyTag, &st);
        EXPECT_EQ(v.size(), 1u);
        EXPECT_EQ(v[0], st.source * 11);
        ++got;
      }
      EXPECT_EQ(got, 2);
    } else {
      const int v = c.rank() * 11;
      c.send(&v, 1, 0, c.rank());
    }
  });
}

TEST(MiniMpi, SendrecvExchanges) {
  run_ranks(2, [](mpi::Comm& c) {
    const int partner = 1 - c.rank();
    const double mine = 2.5 + c.rank();
    double theirs = -1;
    c.sendrecv(&mine, 1, partner, 3, &theirs, 1, partner, 3);
    EXPECT_DOUBLE_EQ(theirs, 2.5 + partner);
  });
}

TEST(MiniMpi, CollectiveVirtualTimeGrowsWithMessageSize) {
  auto net = std::make_shared<sim::SwitchedNetwork>(1e-6, 1e-9);
  double small = run_ranks(8, [](mpi::Comm& c) {
    std::vector<char> buf(64);
    c.bcast(buf.data(), buf.size(), 0);
  }, net);
  double large = run_ranks(8, [](mpi::Comm& c) {
    std::vector<char> buf(1 << 20);
    c.bcast(buf.data(), buf.size(), 0);
  }, net);
  EXPECT_GT(large, small);
}

TEST(Cart, DimsCreateBalances) {
  EXPECT_EQ(mpi::dims_create(8, 3), (std::vector<int>{2, 2, 2}));
  EXPECT_EQ(mpi::dims_create(12, 2), (std::vector<int>{4, 3}));
  EXPECT_EQ(mpi::dims_create(1, 3), (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(mpi::dims_create(13, 2), (std::vector<int>{13, 1}));
  auto d = mpi::dims_create(256, 3);
  EXPECT_EQ(d[0] * d[1] * d[2], 256);
  EXPECT_LE(d[0], 8);
}

TEST(Cart, CoordsRankRoundTrip) {
  run_ranks(12, [](mpi::Comm& c) {
    mpi::CartComm cart(c, {3, 2, 2}, {true, true, false});
    std::vector<int> coords;
    for (int r = 0; r < 12; ++r) {
      cart.coords_of(r, coords);
      EXPECT_EQ(cart.rank_of(coords), r);
    }
    EXPECT_EQ(cart.rank_of(cart.coords()), c.rank());
  });
}

TEST(Cart, PeriodicWrapAndClip) {
  run_ranks(6, [](mpi::Comm& c) {
    mpi::CartComm cart(c, {3, 2}, {true, false});
    // Wrap in dim 0.
    EXPECT_EQ(cart.rank_of({-1, 0}), cart.rank_of({2, 0}));
    EXPECT_EQ(cart.rank_of({3, 1}), cart.rank_of({0, 1}));
    // Clip in dim 1.
    EXPECT_EQ(cart.rank_of({0, -1}), -1);
    EXPECT_EQ(cart.rank_of({0, 2}), -1);
  });
}

TEST(Cart, NeighborsChebyshevRadiusOne) {
  run_ranks(27, [](mpi::Comm& c) {
    mpi::CartComm cart(c, {3, 3, 3}, {true, true, true});
    auto n = cart.neighbors(1);
    // Fully periodic 3x3x3: all 26 surrounding cells are distinct ranks.
    EXPECT_EQ(n.size(), 26u);
  });
  run_ranks(8, [](mpi::Comm& c) {
    mpi::CartComm cart(c, {2, 2, 2}, {false, false, false});
    auto n = cart.neighbors(1);
    // Non-periodic 2x2x2: every other rank is adjacent.
    EXPECT_EQ(n.size(), 7u);
  });
}

TEST(Cart, SizeMismatchThrows) {
  EXPECT_THROW(run_ranks(6,
                         [](mpi::Comm& c) {
                           mpi::CartComm cart(c, {2, 2}, {true, true});
                         }),
               fcs::Error);
}

}  // namespace
