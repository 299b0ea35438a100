// Serve-layer tests: fingerprint keying, the factorization cache (LRU,
// byte pressure, in-flight pinning, symbolic partition reuse), the
// const-solver concurrency contract (two threads against one cached setup
// are bitwise identical to serial), the service's status ladder
// (Ok / Degraded / Timeout / Rejected / Failed) with queue draining, and
// its single-flight set-up (one build per key; requests that meet a build
// in flight park behind it).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/schur_solver.hpp"
#include "core/structural_factor.hpp"
#include "serve/service.hpp"
#include "sparse/symmetrize.hpp"
#include "test_util.hpp"
#include "util/error.hpp"

namespace pdslin {
namespace {

using serve::CachedSetup;
using serve::FactorCache;
using serve::FactorCacheConfig;
using serve::Fingerprint;
using serve::ServeStatus;
using serve::SetupKey;
using serve::SolveService;

std::vector<value_t> random_rhs(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(n);
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

SolverOptions small_options(index_t k = 4) {
  SolverOptions opt;
  opt.num_subdomains = k;
  opt.seed = 3;
  return opt;
}

/// Build a complete (setup + factor) cached entry for the cache tests.
std::shared_ptr<CachedSetup> make_setup(const CsrMatrix& a,
                                        const SolverOptions& opt) {
  auto solver = std::make_shared<SchurSolver>(a, opt);
  solver->setup();
  solver->factor();
  const SetupKey key{serve::fingerprint_of(a), serve::setup_options_hash(opt)};
  return std::make_shared<CachedSetup>(
      key, std::shared_ptr<const SchurSolver>(std::move(solver)));
}

serve::SolveRequest make_request(const std::shared_ptr<const CsrMatrix>& a,
                                 const SolverOptions& opt, index_t nrhs,
                                 std::uint64_t seed) {
  serve::SolveRequest r;
  r.a = a;
  r.opt = opt;
  r.nrhs = nrhs;
  r.b = random_rhs(a->rows * nrhs, seed);
  return r;
}

// ---------------------------------------------------------------- fingerprint

TEST(ServeFingerprint, EqualMatricesEqualFingerprints) {
  const CsrMatrix a = testing::grid_laplacian(8, 8);
  const CsrMatrix b = a;
  EXPECT_EQ(serve::fingerprint_of(a), serve::fingerprint_of(b));
}

TEST(ServeFingerprint, ValueChangeFlipsNumericHalfOnly) {
  const CsrMatrix a = testing::grid_laplacian(8, 8);
  CsrMatrix b = a;
  b.values[5] += 1e-12;  // tiniest numeric perturbation must be seen
  const Fingerprint fa = serve::fingerprint_of(a);
  const Fingerprint fb = serve::fingerprint_of(b);
  EXPECT_EQ(fa.structure, fb.structure);
  EXPECT_NE(fa.values, fb.values);
  EXPECT_NE(fa, fb);
}

TEST(ServeFingerprint, PatternChangeFlipsStructure) {
  const CsrMatrix a = testing::grid_laplacian(8, 8);
  const CsrMatrix b = testing::grid_laplacian(8, 9);
  EXPECT_NE(serve::fingerprint_of(a).structure,
            serve::fingerprint_of(b).structure);
}

TEST(ServeFingerprint, ColIdxEditInEachLaneAndTheTailFlipsStructure) {
  // hash_bytes deals 8-byte word w of a range to lane w mod 4 and folds the
  // last 1-7 bytes into lane 3. With 4-byte indices, entries 2w and 2w+1 of
  // col_idx form word w, and an odd nnz leaves the last entry as a 4-byte
  // tail. One edit per lane (sites 0, 2, 4, 6, then the next round at 10)
  // and one in the tail: each must move the structural half alone.
  const CsrMatrix a = testing::grid_laplacian(5, 5);
  ASSERT_EQ(a.nnz() % 2, 1) << "the case needs a sub-8-byte tail";
  const Fingerprint base = serve::fingerprint_of(a);
  for (const index_t site : {index_t{0}, index_t{2}, index_t{4}, index_t{6},
                             index_t{10}, a.nnz() - 1}) {
    CsrMatrix b = a;
    b.col_idx[static_cast<std::size_t>(site)] ^= 1;
    const Fingerprint f = serve::fingerprint_of(b);
    EXPECT_NE(f.structure, base.structure) << "col_idx[" << site << "]";
    EXPECT_EQ(f.values, base.values) << "col_idx[" << site << "]";
  }
}

TEST(ServeFingerprint, EmptyAndPatternOnlyMatrices) {
  // Empty vectors may hand hash_bytes a null pointer with a zero length;
  // it must not reach memcpy (the ASan+UBSan build runs this suite).
  EXPECT_EQ(serve::hash_bytes(nullptr, 0), serve::hash_bytes("x", 0));
  const CsrMatrix none;        // 0×0, even row_ptr empty
  const CsrMatrix zero(0, 0);  // 0×0, row_ptr = {0}
  const CsrMatrix one(1, 1);   // 1×1 with no entries
  EXPECT_EQ(serve::fingerprint_of(none).values, 0u);
  EXPECT_EQ(serve::fingerprint_of(zero).values, 0u);
  EXPECT_NE(serve::fingerprint_of(zero).structure,
            serve::fingerprint_of(one).structure);

  // Pattern-only: fresh arrays, values never allocated. The structural
  // half matches the valued matrix's; the numeric half is 0.
  const CsrMatrix valued = testing::grid_laplacian(6, 6);
  CsrMatrix pattern(valued.rows, valued.cols);
  pattern.row_ptr = valued.row_ptr;
  pattern.col_idx = valued.col_idx;
  ASSERT_FALSE(pattern.has_values());
  const Fingerprint fp = serve::fingerprint_of(pattern);
  EXPECT_EQ(fp.structure, serve::fingerprint_of(valued).structure);
  EXPECT_EQ(fp.values, 0u);
}

TEST(ServeFingerprint, OptionsHashIgnoresSolvePhaseKnobs) {
  SolverOptions a = small_options();
  SolverOptions b = a;
  b.krylov.rel_tolerance = 1e-6;  // solve-phase: must still share a setup
  b.krylov.max_iterations = 17;
  EXPECT_EQ(serve::setup_options_hash(a), serve::setup_options_hash(b));

  SolverOptions c = a;
  c.num_subdomains = 8;  // setup-phase: different key
  EXPECT_NE(serve::setup_options_hash(a), serve::setup_options_hash(c));
  SolverOptions d = a;
  d.assembly.drop_s = 1e-3;
  EXPECT_NE(serve::setup_options_hash(a), serve::setup_options_hash(d));
}

TEST(ServeFingerprint, SymbolicKeyDropsValues) {
  const CsrMatrix a = testing::grid_laplacian(8, 8);
  CsrMatrix b = a;
  b.values[0] *= 2.0;
  const SolverOptions opt = small_options();
  const SetupKey ka{serve::fingerprint_of(a), serve::setup_options_hash(opt)};
  const SetupKey kb{serve::fingerprint_of(b), serve::setup_options_hash(opt)};
  EXPECT_NE(ka, kb);
  EXPECT_EQ(ka.symbolic(), kb.symbolic());
}

TEST(ServeFingerprint, BytesAndHexRoundTrip) {
  std::vector<Fingerprint> cases = {
      {0, 0},
      {1, 0},
      {0, 1},
      {0xffffffffffffffffull, 0xffffffffffffffffull},
      {0x0123456789abcdefull, 0xfedcba9876543210ull},
      {0x8000000000000000ull, 0x0000000000000001ull},
      serve::fingerprint_of(testing::grid_laplacian(8, 8)),
      serve::fingerprint_of(testing::grid_laplacian(9, 5)),
  };
  Rng rng(123);
  for (int i = 0; i < 256; ++i) cases.push_back({rng.next(), rng.next()});

  for (const Fingerprint& fp : cases) {
    const std::string hex = fp.to_hex();
    ASSERT_EQ(hex.size(), 32u);
    for (char c : hex) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
    }
    // Byte layout is pinned: each half little-endian, structure first.
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(std::stoul(hex.substr(2 * i, 2), nullptr, 16),
                (fp.structure >> (8 * i)) & 0xFF) << hex;
      EXPECT_EQ(std::stoul(hex.substr(16 + 2 * i, 2), nullptr, 16),
                (fp.values >> (8 * i)) & 0xFF) << hex;
    }
  }
}

// --------------------------------------------------------------- factor cache

TEST(ServeFactorCache, HitMissAndRecency) {
  const SolverOptions opt = small_options();
  auto s1 = make_setup(testing::grid_laplacian(10, 10), opt);
  FactorCache cache;
  EXPECT_EQ(cache.find(s1->key()), nullptr);
  EXPECT_TRUE(cache.insert(s1));
  EXPECT_EQ(cache.find(s1->key()).get(), s1.get());
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.bytes, s1->bytes());
}

TEST(ServeFactorCache, EvictsColdestUnderBytePressure) {
  const SolverOptions opt = small_options();
  auto s1 = make_setup(testing::grid_laplacian(10, 10), opt);
  auto s2 = make_setup(testing::grid_laplacian(11, 11), opt);
  auto s3 = make_setup(testing::grid_laplacian(12, 12), opt);

  FactorCacheConfig cfg;
  cfg.capacity_bytes = s1->bytes() + s2->bytes() + s3->bytes() / 2;
  FactorCache cache(cfg);
  ASSERT_TRUE(cache.insert(s1));
  ASSERT_TRUE(cache.insert(s2));
  // Touch s1 so s2 is the coldest, then squeeze s3 in.
  ASSERT_NE(cache.find(s1->key()), nullptr);
  const auto k1 = s1->key();
  const auto k2 = s2->key();
  s1.reset();
  s2.reset();  // cache holds the only references → evictable
  ASSERT_TRUE(cache.insert(s3));

  EXPECT_EQ(cache.find(k2), nullptr) << "coldest entry should be evicted";
  EXPECT_NE(cache.find(k1), nullptr) << "recently-used entry must survive";
  EXPECT_NE(cache.find(s3->key()), nullptr);
  EXPECT_GE(cache.stats().evictions, 1);
  EXPECT_LE(cache.stats().bytes, cfg.capacity_bytes);
}

TEST(ServeFactorCache, PinnedEntryIsNeverEvicted) {
  const SolverOptions opt = small_options();
  auto s1 = make_setup(testing::grid_laplacian(10, 10), opt);
  auto s2 = make_setup(testing::grid_laplacian(11, 11), opt);

  FactorCacheConfig cfg;
  cfg.capacity_bytes = s1->bytes() + s2->bytes() / 4;  // only one fits
  FactorCache cache(cfg);
  ASSERT_TRUE(cache.insert(s1));
  const auto pin = cache.find(s1->key());  // in-flight solve holds this
  ASSERT_NE(pin, nullptr);
  s1.reset();

  // s2 cannot fit without evicting the pinned s1: insert must refuse and
  // leave the pinned entry resident.
  EXPECT_FALSE(cache.insert(s2));
  EXPECT_NE(cache.find(pin->key()), nullptr);
  EXPECT_GE(cache.stats().insert_rejects, 1);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(ServeFactorCache, OversizedEntryRejected) {
  const SolverOptions opt = small_options();
  auto s1 = make_setup(testing::grid_laplacian(10, 10), opt);
  FactorCacheConfig cfg;
  cfg.capacity_bytes = s1->bytes() / 2;
  FactorCache cache(cfg);
  EXPECT_FALSE(cache.insert(s1));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_GE(cache.stats().insert_rejects, 1);
}

TEST(ServeFactorCache, ReinsertReplacesExistingKey) {
  const SolverOptions opt = small_options();
  const CsrMatrix a = testing::grid_laplacian(10, 10);
  auto s1 = make_setup(a, opt);
  auto s2 = make_setup(a, opt);  // same key
  FactorCache cache;
  ASSERT_TRUE(cache.insert(s1));
  ASSERT_TRUE(cache.insert(s2));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.find(s1->key()).get(), s2.get());
}

TEST(ServeFactorCache, PartitionSurvivesNumericEviction) {
  const SolverOptions opt = small_options();
  const CsrMatrix a = testing::grid_laplacian(12, 12);
  auto s1 = make_setup(a, opt);
  auto s2 = make_setup(testing::grid_laplacian(13, 13), opt);
  const SetupKey k1 = s1->key();

  FactorCacheConfig cfg;
  // Each entry fits alone; the two together do not.
  cfg.capacity_bytes = s1->bytes() + s2->bytes() - 1;
  FactorCache cache(cfg);
  ASSERT_TRUE(cache.insert(s1));
  s1.reset();
  // A different pattern displaces the numeric entry...
  ASSERT_TRUE(cache.insert(s2));
  ASSERT_EQ(cache.find(k1), nullptr);

  // ...but the partition is still there for the symbolic level of the
  // ladder: same pattern + new values re-factors without re-partitioning.
  CsrMatrix a2 = a;
  for (auto& v : a2.values) v *= 1.001;
  const SetupKey k2{serve::fingerprint_of(a2), serve::setup_options_hash(opt)};
  EXPECT_NE(k1, k2);
  const auto part = cache.find_partition(k2, /*incidence=*/0);
  ASSERT_NE(part, nullptr);
  EXPECT_GE(cache.stats().symbolic_hits, 1);

  SchurSolver solver(a2, opt);
  solver.adopt_partition(*part);
  solver.factor();
  const auto b = random_rhs(a2.rows, 11);
  std::vector<value_t> x(a2.rows, 0.0);
  EXPECT_TRUE(solver.solve(b, x).converged);

  // The adopted partition must give the same answer as a from-scratch setup.
  SchurSolver fresh(a2, opt);
  fresh.setup();
  fresh.factor();
  std::vector<value_t> xf(a2.rows, 0.0);
  ASSERT_TRUE(fresh.solve(b, xf).converged);
  EXPECT_EQ(0, std::memcmp(x.data(), xf.data(), x.size() * sizeof(value_t)))
      << "symbolic reuse changed the numerics";
}

TEST(ServeFactorCache, AdoptedPartitionChargedFullBytes) {
  // Regression: an entry built through the symbolic-reuse path
  // (adopt_partition + factor) must be byte-charged exactly like a cold
  // setup — the adopted partition skips the partitioner, not the factors,
  // so an undercharge here would let the cache blow its byte budget.
  const SolverOptions opt = small_options();
  const CsrMatrix a = testing::grid_laplacian(12, 12);
  auto cold = make_setup(a, opt);

  FactorCache cache;
  ASSERT_TRUE(cache.insert(cold));

  // Same pattern, uniformly scaled values: same symbolic class, same pivot
  // choices, hence an identical structural footprint.
  CsrMatrix a2 = a;
  for (auto& v : a2.values) v *= 1.0 + 1e-6;
  const SetupKey k2{serve::fingerprint_of(a2), serve::setup_options_hash(opt)};
  const auto part = cache.find_partition(k2, /*incidence=*/0);
  ASSERT_NE(part, nullptr);

  auto solver = std::make_shared<SchurSolver>(a2, opt);
  solver->adopt_partition(*part);
  solver->factor();
  auto adopted = std::make_shared<CachedSetup>(
      k2, std::shared_ptr<const SchurSolver>(solver));

  EXPECT_EQ(adopted->bytes(), solver->memory_bytes());
  EXPECT_GT(adopted->bytes(), 0u);
  EXPECT_EQ(adopted->bytes(), cold->bytes())
      << "adopt_partition path accounted a different footprint than setup()";

  const std::size_t bytes_before = cache.stats().bytes;
  ASSERT_TRUE(cache.insert(adopted));
  EXPECT_EQ(cache.stats().bytes, bytes_before + adopted->bytes());
  EXPECT_EQ(cache.stats().entries, 2u);

  // Evicting the adopted entry refunds exactly what it was charged. Drop
  // the first cache's reference first — a pinned entry is never evicted.
  cache.clear();
  auto s3 = make_setup(testing::grid_laplacian(13, 13), opt);
  FactorCacheConfig tight;
  tight.capacity_bytes = adopted->bytes() + s3->bytes() - 1;
  FactorCache small(tight);
  ASSERT_TRUE(small.insert(adopted));
  adopted.reset();  // unpin
  ASSERT_TRUE(small.insert(s3));
  EXPECT_EQ(small.stats().bytes, s3->bytes());
  EXPECT_EQ(small.stats().entries, 1u);
}

TEST(ServeFactorCache, EvictionRacesInFlightPinning) {
  // Many threads hammer one small cache: finders pin entries (shared_ptr)
  // and use the solver while inserters force continual eviction pressure.
  // Pinned entries must never be evicted out from under a solve, and the
  // byte accounting must balance once the storm passes. Runs under the
  // serve TSan label.
  const SolverOptions opt = small_options();
  std::vector<CsrMatrix> mats;
  std::vector<std::shared_ptr<const SchurSolver>> solvers;
  std::vector<SetupKey> keys;
  for (index_t i = 0; i < 4; ++i) {
    mats.push_back(testing::grid_laplacian(10 + i, 10 + i));
    auto solver = std::make_shared<SchurSolver>(mats.back(), opt);
    solver->setup();
    solver->factor();
    keys.push_back(SetupKey{serve::fingerprint_of(mats.back()),
                            serve::setup_options_hash(opt)});
    solvers.push_back(std::move(solver));
  }

  FactorCacheConfig cfg;
  // Room for roughly two entries: every insert beyond that must evict.
  cfg.capacity_bytes =
      solvers[2]->memory_bytes() + solvers[3]->memory_bytes();
  FactorCache cache(cfg);
  // Fill the cache before the storm (the last two entries survive), so a
  // finder can hit even if it runs all its lookups before any inserter.
  for (std::size_t j = 0; j < keys.size(); ++j) {
    (void)cache.insert(std::make_shared<CachedSetup>(keys[j], solvers[j]));
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::atomic<int> pinned_uses{0};
  std::latch start(kThreads);  // releases every thread at once
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(1000 + t));
      start.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        const std::size_t j =
            static_cast<std::size_t>(rng.bounded(keys.size()));
        if (t % 2 == 0) {
          // Inserter: a fresh wrapper each round (only the cache and any
          // in-flight finder hold it), so eviction pressure is real.
          (void)cache.insert(
              std::make_shared<CachedSetup>(keys[j], solvers[j]));
        } else {
          // Finder: pin an entry and actually use it across the race
          // window — an eviction that freed it would explode here.
          if (auto hit = cache.find(keys[j])) {
            auto ctx = hit->take_context();
            const auto b =
                random_rhs(mats[j].rows, static_cast<std::uint64_t>(i));
            std::vector<value_t> x(mats[j].rows, 0.0);
            (void)hit->solver().solve(b, x, *ctx);
            hit->return_context(std::move(ctx));
            pinned_uses.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(pinned_uses.load(), 0) << "stress never exercised a pinned hit";

  const auto st = cache.stats();
  EXPECT_LE(st.entries, 4u);
  EXPECT_GT(st.evictions, 0);
  // Byte ledger balances: what remains is exactly the sum of live entries.
  std::size_t live = 0;
  for (const SetupKey& k : keys) {
    if (const auto hit = cache.find(k)) live += hit->bytes();
  }
  EXPECT_EQ(cache.stats().bytes, live);
  cache.clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ------------------------------------------------ const-solver concurrency

TEST(ServeConcurrentSolve, TwoThreadsMatchSerialBitwise) {
  SolverOptions opt = small_options();
  opt.threads = 2;  // concurrent solves also share the global pool
  const CsrMatrix a = testing::grid_laplacian(20, 20);
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();
  const SchurSolver& shared = solver;

  const auto b1 = random_rhs(a.rows, 21);
  const auto b2 = random_rhs(a.rows, 22);

  std::vector<value_t> x1s(a.rows, 0.0), x2s(a.rows, 0.0);
  {
    SchurSolver::SolveContext ctx;
    ASSERT_TRUE(shared.solve(b1, x1s, ctx).converged);
  }
  {
    SchurSolver::SolveContext ctx;
    ASSERT_TRUE(shared.solve(b2, x2s, ctx).converged);
  }

  for (int round = 0; round < 4; ++round) {
    std::vector<value_t> x1(a.rows, 0.0), x2(a.rows, 0.0);
    GmresResult r1, r2;
    std::thread t1([&] {
      SchurSolver::SolveContext ctx;
      r1 = shared.solve(b1, x1, ctx);
    });
    std::thread t2([&] {
      SchurSolver::SolveContext ctx;
      r2 = shared.solve(b2, x2, ctx);
    });
    t1.join();
    t2.join();
    ASSERT_TRUE(r1.converged);
    ASSERT_TRUE(r2.converged);
    EXPECT_EQ(0, std::memcmp(x1.data(), x1s.data(), x1.size() * sizeof(value_t)))
        << "concurrent solve diverged from serial (round " << round << ")";
    EXPECT_EQ(0, std::memcmp(x2.data(), x2s.data(), x2.size() * sizeof(value_t)))
        << "concurrent solve diverged from serial (round " << round << ")";
  }
}

TEST(ServeConcurrentSolve, ConstMultiMatchesMemberSolve) {
  const CsrMatrix a = testing::grid_laplacian(16, 16);
  SolverOptions opt = small_options();
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();

  const index_t nrhs = 3;
  const auto b = random_rhs(a.rows * nrhs, 31);
  std::vector<value_t> x_member(a.rows * nrhs, 0.0);
  auto r_member = solver.solve_multi(b, x_member, nrhs);

  SchurSolver::SolveContext ctx;
  std::vector<value_t> x_const(a.rows * nrhs, 0.0);
  const SchurSolver& shared = solver;
  auto r_const = shared.solve_multi(b, x_const, nrhs, ctx);

  ASSERT_EQ(r_member.size(), r_const.size());
  for (std::size_t j = 0; j < r_member.size(); ++j) {
    EXPECT_TRUE(r_const[j].converged);
    EXPECT_EQ(r_member[j].iterations, r_const[j].iterations);
  }
  EXPECT_EQ(0, std::memcmp(x_member.data(), x_const.data(),
                           x_member.size() * sizeof(value_t)));
}

// -------------------------------------------------------------------- service

TEST(ServeService, SolvesCorrectlyAndCachesRepeats) {
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(14, 14));
  const SolverOptions opt = small_options();
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  SolveService service(cfg);

  const auto first = service.solve(make_request(a, opt, 1, 41));
  ASSERT_EQ(first.status, ServeStatus::Ok);
  EXPECT_FALSE(first.cache_hit);

  const auto again = service.solve(make_request(a, opt, 1, 41));
  ASSERT_EQ(again.status, ServeStatus::Ok);
  EXPECT_TRUE(again.cache_hit);
  ASSERT_EQ(first.x.size(), again.x.size());
  EXPECT_EQ(0, std::memcmp(first.x.data(), again.x.data(),
                           first.x.size() * sizeof(value_t)))
      << "cached-path answer must be bitwise identical to the cold path";

  // Against the dense oracle.
  const auto b = random_rhs(a->rows, 41);
  std::vector<value_t> x_ref;
  ASSERT_TRUE(testing::dense_solve(testing::to_dense(*a), b, x_ref));
  for (index_t i = 0; i < a->rows; ++i) {
    EXPECT_NEAR(first.x[i], x_ref[i], 1e-6);
  }
}

// A cached set-up, a cached partition and a build in flight answer only
// requests that bring the incidence they were partitioned on: each answer
// is bitwise the direct solve with the request's own incidence.
TEST(ServeService, CachedSetupAnswersOnlyItsOwnIncidence) {
  const auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(16, 16));
  auto a2 = std::make_shared<CsrMatrix>(*a);  // same pattern, new values
  for (value_t& v : a2->values) v *= 1.25;
  // The clique cover (the grid's edges), and A's own rows (one star per
  // unknown): both valid incidences, with different hypergraphs.
  const auto inc1 = std::make_shared<const CsrMatrix>(
      clique_cover_factor(symmetrize_abs(pattern_of(*a))));
  const auto inc2 = a;
  const SolverOptions opt = small_options();

  const auto direct = [&](const CsrMatrix& m, const CsrMatrix& inc) {
    SchurSolver solver(m, opt);
    solver.setup(&inc);
    solver.factor();
    std::vector<value_t> x(m.rows, 0.0);
    solver.solve(random_rhs(m.rows, 41), x);
    return x;
  };
  const auto served = [](SolveService& svc, std::shared_ptr<const CsrMatrix> m,
                         std::shared_ptr<const CsrMatrix> inc,
                         const SolverOptions& o) {
    serve::SolveRequest req = make_request(m, o, 1, 41);
    req.incidence = std::move(inc);
    return svc.solve(std::move(req));
  };
  const auto same = [](const std::vector<value_t>& x,
                       const std::vector<value_t>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(value_t)) == 0;
  };
  const std::vector<value_t> x11 = direct(*a, *inc1), x12 = direct(*a, *inc2);
  const std::vector<value_t> x21 = direct(*a2, *inc1);
  ASSERT_FALSE(same(x11, x12)) << "the two incidences must partition apart";

  SolveService svc;
  const auto r1 = served(svc, a, inc1, opt);
  ASSERT_EQ(r1.status, ServeStatus::Ok);
  EXPECT_TRUE(same(r1.x, x11));
  // Same A, other incidence: the cached set-up does not answer it.
  const auto r2 = served(svc, a, inc2, opt);
  ASSERT_EQ(r2.status, ServeStatus::Ok);
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_TRUE(same(r2.x, x12)) << "answered from the first incidence's set-up";
  // New values: the cached partition (now inc2's) is not adopted for inc1.
  const auto r3 = served(svc, a2, inc1, opt);
  ASSERT_EQ(r3.status, ServeStatus::Ok);
  EXPECT_FALSE(r3.symbolic_reuse);
  EXPECT_TRUE(same(r3.x, x21)) << "refactored on the other incidence's partition";
  // The request's own incidence still hits.
  const auto r4 = served(svc, a2, inc1, opt);
  EXPECT_TRUE(r4.cache_hit);
  EXPECT_TRUE(same(r4.x, x21));

  // Only r4 reused anything: the entry r2 met and the partition r3 met were
  // on the other incidence, and count as misses, not hits.
  const serve::FactorCacheStats st = svc.cache().stats();
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.misses, 3);
  EXPECT_EQ(st.symbolic_hits, 0);
  // The key's entry is inc1's; the one-argument find returns it anyway.
  const serve::SetupKey key{serve::fingerprint_of(*a2),
                            serve::setup_options_hash(opt)};
  ASSERT_NE(svc.cache().find(key), nullptr);
  EXPECT_EQ(svc.cache().find(key, incidence_hash_of(inc2.get())),
            nullptr);
  EXPECT_NE(svc.cache().find(key, incidence_hash_of(inc1.get())),
            nullptr);
}

TEST(ServeService, InvalidRequestFailsFast) {
  serve::ServiceConfig cfg;
  SolveService service(cfg);
  serve::SolveRequest bad;  // no matrix at all
  const auto resp = service.solve(std::move(bad));
  EXPECT_EQ(resp.status, ServeStatus::Failed);
  EXPECT_FALSE(resp.detail.empty());
}

// One request check before the queue: a malformed matrix or incidence, or
// a non-finite value in A or b, is answered Failed with "invalid request:"
// and never reaches a set-up (an out-of-range column crashed the process
// in the partitioner; a NaN in A was answered "singular").
TEST(ServeService, InvalidRequestIsAnsweredBeforeItIsQueued) {
  const CsrMatrix a = testing::grid_laplacian(10, 10);
  const SolverOptions opt = small_options();
  SolveService service;
  const auto expect_invalid = [&](serve::SolveRequest req, const char* what,
                                  const char* detail) {
    const auto resp = service.solve(std::move(req));
    EXPECT_EQ(resp.status, ServeStatus::Failed) << what;
    EXPECT_EQ(resp.detail.rfind("invalid request: ", 0), 0u)
        << what << ": " << resp.detail;
    EXPECT_NE(resp.detail.find(detail), std::string::npos)
        << what << ": " << resp.detail;
  };
  const auto with_matrix = [&](CsrMatrix m) {
    return make_request(std::make_shared<const CsrMatrix>(std::move(m)), opt,
                        1, 61);
  };

  CsrMatrix bad = a;
  bad.col_idx[9] = a.cols;
  expect_invalid(with_matrix(bad), "column out of range", "index out of range");
  bad = a;
  std::swap(bad.row_ptr[3], bad.row_ptr[4]);
  expect_invalid(with_matrix(bad), "swapped row_ptr pair", "monotone");
  bad = a;
  bad.values[17] = std::numeric_limits<value_t>::quiet_NaN();
  expect_invalid(with_matrix(bad), "NaN in A", "non-finite value in row");

  serve::SolveRequest nan_b = with_matrix(a);
  nan_b.b[23] = std::numeric_limits<value_t>::quiet_NaN();
  expect_invalid(std::move(nan_b), "NaN in b", "b holds a non-finite value");

  serve::SolveRequest wide = with_matrix(a);
  auto inc = std::make_shared<CsrMatrix>(1, a.cols + 1);
  inc->row_ptr = {0, 1};
  inc->col_idx = {0};
  wide.incidence = inc;
  expect_invalid(std::move(wide), "incidence width", "columns");

  const serve::ServiceStats st = service.stats();
  EXPECT_EQ(st.failed, 5);
  EXPECT_EQ(st.accepted, 0);
  EXPECT_EQ(st.setups_built, 0);
  EXPECT_EQ(service.solve(with_matrix(a)).status, ServeStatus::Ok);
}

TEST(ServeService, DegradedOnSingularSetupAndQueueKeepsDraining) {
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(12, 12));
  const SolverOptions opt = small_options();
  SolverOptions sick = opt;
  sick.assembly.lu.min_pivot = 1e30;  // every subdomain LU reports singular

  serve::ServiceConfig cfg;
  cfg.workers = 1;
  SolveService service(cfg);

  auto f1 = service.submit(make_request(a, opt, 1, 51));
  auto f2 = service.submit(make_request(a, sick, 1, 52));
  auto f3 = service.submit(make_request(a, opt, 1, 53));
  const auto r1 = f1.get();
  const auto r2 = f2.get();
  const auto r3 = f3.get();

  EXPECT_EQ(r1.status, ServeStatus::Ok);
  ASSERT_EQ(r2.status, ServeStatus::Degraded);
  EXPECT_NE(r2.detail.find("setup failed"), std::string::npos);
  // The failed check names its file from src/ on, not by the absolute path
  // of the directory the library was built in.
  EXPECT_NE(r2.detail.find(" at src/direct/lu.cpp:"), std::string::npos)
      << r2.detail;
  EXPECT_EQ(r3.status, ServeStatus::Ok) << "queue must drain past the fault";
  // The failed build and the fallback solve both took time; latency sums
  // over these fields must not undercount a degraded request.
  EXPECT_GT(r2.setup_seconds, 0.0);
  EXPECT_GT(r2.solve_seconds, 0.0);

  // The degraded answer is still an answer: residual-checked fallback.
  const auto b = random_rhs(a->rows, 52);
  std::vector<value_t> x_ref;
  ASSERT_TRUE(testing::dense_solve(testing::to_dense(*a), b, x_ref));
  for (index_t i = 0; i < a->rows; ++i) {
    EXPECT_NEAR(r2.x[i], x_ref[i], 1e-5);
  }
}

/// Occupy the service's single worker slot long enough to observe queue
/// behaviour behind it: returns once the blocker request is taken from the
/// queue.
std::future<serve::SolveResponse> dispatch_blocker(
    SolveService& service, const std::shared_ptr<const CsrMatrix>& big,
    const SolverOptions& opt) {
  auto fut = service.submit(make_request(big, opt, 1, 61));
  while (service.stats().batches < 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return fut;
}

/// Submit `count` requests against one matrix, right-hand sides seeded
/// seed0, seed0 + 1, ...
std::vector<std::future<serve::SolveResponse>> submit_burst(
    SolveService& service, const std::shared_ptr<const CsrMatrix>& a,
    const SolverOptions& opt, int count, index_t nrhs, std::uint64_t seed0) {
  std::vector<std::future<serve::SolveResponse>> fs;
  for (int i = 0; i < count; ++i) {
    fs.push_back(service.submit(
        make_request(a, opt, nrhs, seed0 + static_cast<std::uint64_t>(i))));
  }
  return fs;
}

/// The answers a direct SchurSolver gives to the requests of submit_burst.
std::vector<std::vector<value_t>> direct_burst(const CsrMatrix& a,
                                               const SolverOptions& opt,
                                               int count, index_t nrhs,
                                               std::uint64_t seed0) {
  SchurSolver solver(a, opt);
  solver.setup();
  solver.factor();
  std::vector<std::vector<value_t>> xs;
  for (int i = 0; i < count; ++i) {
    const auto b = random_rhs(a.rows * nrhs, seed0 + static_cast<std::uint64_t>(i));
    std::vector<value_t> x(b.size(), 0.0);
    for (const GmresResult& r : solver.solve_multi(b, x, nrhs)) {
      EXPECT_TRUE(r.converged);
    }
    xs.push_back(std::move(x));
  }
  return xs;
}

bool bitwise_equal(const std::vector<value_t>& x, const std::vector<value_t>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(value_t)) == 0;
}

TEST(ServeService, BackpressureRejectsWhenQueueFull) {
  auto big = std::make_shared<const CsrMatrix>(testing::grid_laplacian(40, 40));
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(10, 10));
  const SolverOptions opt = small_options();
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  SolveService service(cfg);

  auto blocker = dispatch_blocker(service, big, opt);
  auto f1 = service.submit(make_request(a, opt, 1, 62));  // queued
  auto f2 = service.submit(make_request(a, opt, 1, 63));  // queued
  auto f3 = service.submit(make_request(a, opt, 1, 64));  // queue full
  const auto r3 = f3.get();
  EXPECT_EQ(r3.status, ServeStatus::Rejected);
  EXPECT_NE(r3.detail.find("queue full"), std::string::npos);

  EXPECT_EQ(blocker.get().status, ServeStatus::Ok);
  EXPECT_EQ(f1.get().status, ServeStatus::Ok);
  EXPECT_EQ(f2.get().status, ServeStatus::Ok);
  EXPECT_GE(service.stats().rejected, 1);
}

TEST(ServeService, RejectsAfterStop) {
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(10, 10));
  const SolverOptions opt = small_options();
  SolveService service(serve::ServiceConfig{});
  service.stop();
  const auto r = service.solve(make_request(a, opt, 1, 65));
  EXPECT_EQ(r.status, ServeStatus::Rejected);
}

TEST(ServeService, QueueDeadlineYieldsTimeout) {
  auto big = std::make_shared<const CsrMatrix>(testing::grid_laplacian(40, 40));
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(10, 10));
  const SolverOptions opt = small_options();
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  SolveService service(cfg);

  auto blocker = dispatch_blocker(service, big, opt);
  auto req = make_request(a, opt, 1, 66);
  req.timeout_seconds = 1e-6;  // expires while the blocker holds the slot
  auto f = service.submit(std::move(req));
  const auto r = f.get();
  EXPECT_EQ(r.status, ServeStatus::Timeout);
  EXPECT_GT(r.queue_seconds, 0.0);
  EXPECT_EQ(blocker.get().status, ServeStatus::Ok);
}

TEST(ServeService, ColdBurstBuildsOneSetup) {
  // Same-key requests arriving together at a cold service: the first miss
  // claims the build, the others park behind it and are answered from it.
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(20, 20));
  const SolverOptions opt = small_options();
  constexpr int kBurst = 8;
  const auto ref = direct_burst(*a, opt, kBurst, 2, 70);

  serve::ServiceConfig cfg;
  cfg.workers = 4;
  SolveService service(cfg);
  auto fs = submit_burst(service, a, opt, kBurst, 2, 70);
  for (int i = 0; i < kBurst; ++i) {
    const auto r = fs[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, ServeStatus::Ok) << r.detail;
    EXPECT_EQ(r.batch_width, 2);
    EXPECT_TRUE(bitwise_equal(r.x, ref[static_cast<std::size_t>(i)]))
        << "request " << i << " differs from the direct solve";
  }
  const auto st = service.stats();
  EXPECT_EQ(st.setups_built, 1) << "one key, one build";
  EXPECT_EQ(st.batches, kBurst) << "each request counts once";
  EXPECT_EQ(st.batched_nrhs, 2 * kBurst);
}

TEST(ServeService, FailedBuildAnswersEveryParkedRequest) {
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(12, 12));
  SolverOptions sick = small_options();
  sick.assembly.lu.min_pivot = 1e30;  // every subdomain LU reports singular
  serve::ServiceConfig cfg;
  cfg.workers = 4;
  SolveService service(cfg);

  auto fs = submit_burst(service, a, sick, 6, 1, 90);
  std::string detail;
  for (auto& f : fs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(120)), std::future_status::ready)
        << "a request parked behind the failed build was never answered";
    const auto r = f.get();
    ASSERT_EQ(r.status, ServeStatus::Degraded);
    EXPECT_NE(r.detail.find("setup failed"), std::string::npos);
    if (detail.empty()) detail = r.detail;
    EXPECT_EQ(r.detail, detail);
    EXPECT_FALSE(r.cache_hit);
  }
  // No claim is left behind: the next request of the key builds again.
  auto again = service.submit(make_request(a, sick, 1, 99));
  ASSERT_EQ(again.wait_for(std::chrono::seconds(120)), std::future_status::ready)
      << "a failed build left its claim behind";
  const auto r = again.get();
  EXPECT_EQ(r.status, ServeStatus::Degraded);
  EXPECT_GT(r.setup_seconds, 0.0) << "the request did not build";
  EXPECT_EQ(service.stats().setups_built, 0);
}

TEST(ServeService, NestedParallelBurstFinishes) {
  // Set-ups and solves fan out on the same pool that runs the requests, so
  // a pool wait may run another request's task on the stack of a request
  // that is building. A request that meets a build in flight must park,
  // never block.
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(20, 20));
  auto b = std::make_shared<const CsrMatrix>(testing::grid_laplacian(18, 22));
  SolverOptions opt = small_options();
  opt.threads = 4;
  serve::ServiceConfig cfg;
  cfg.workers = 4;
  SolveService service(cfg);

  std::vector<std::future<serve::SolveResponse>> fs;
  for (int i = 0; i < 6; ++i) {
    fs.push_back(service.submit(make_request(a, opt, 1, 110 + i)));
    fs.push_back(service.submit(make_request(b, opt, 2, 120 + i)));
  }
  for (auto& f : fs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(120)), std::future_status::ready)
        << "nested burst did not finish";
    EXPECT_EQ(f.get().status, ServeStatus::Ok);
  }
  EXPECT_EQ(service.stats().setups_built, 2);
}

TEST(ServeService, StopDrainsParkedRequests) {
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(20, 20));
  const SolverOptions opt = small_options();
  serve::ServiceConfig cfg;
  cfg.workers = 4;
  SolveService service(cfg);

  auto fs = submit_burst(service, a, opt, 8, 1, 130);
  service.stop();
  for (auto& f : fs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "stop() returned before a parked request was answered";
    EXPECT_EQ(f.get().status, ServeStatus::Ok);
  }
  const auto st = service.stats();
  EXPECT_EQ(st.completed, 8);
  EXPECT_EQ(st.setups_built, 1);
}

TEST(ServeService, ParkedRequestsCountAgainstCapacity) {
  // Two requests parked behind a build fill a queue of capacity 2, although
  // the queue itself is empty: a third request is Rejected.
  auto big = std::make_shared<const CsrMatrix>(testing::grid_laplacian(80, 80));
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(10, 10));
  const SolverOptions opt = small_options();
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 2;
  SolveService service(cfg);

  auto fs = submit_burst(service, big, opt, 3, 1, 140);
  // Each of the three looks the key up once, under the same lock as its
  // claim or park; the submit below takes that lock after the last park.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (service.cache().stats().misses < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ASSERT_EQ(service.cache().stats().misses, 3)
      << "the build ended before the other two requests looked the key up";
  const auto late = service.solve(make_request(a, opt, 1, 149));
  EXPECT_EQ(late.status, ServeStatus::Rejected);
  EXPECT_NE(late.detail.find("queue full"), std::string::npos);

  for (auto& f : fs) EXPECT_EQ(f.get().status, ServeStatus::Ok);
  EXPECT_EQ(service.stats().setups_built, 1);
}

TEST(ServeService, CacheOffBuildsEveryRequest) {
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(16, 16));
  const SolverOptions opt = small_options();
  constexpr int kBurst = 4;
  const auto ref = direct_burst(*a, opt, kBurst, 1, 150);

  serve::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.enable_cache = false;
  SolveService service(cfg);
  auto fs = submit_burst(service, a, opt, kBurst, 1, 150);
  for (int i = 0; i < kBurst; ++i) {
    const auto r = fs[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, ServeStatus::Ok);
    EXPECT_FALSE(r.cache_hit);
    EXPECT_GT(r.setup_seconds, 0.0);
    EXPECT_TRUE(bitwise_equal(r.x, ref[static_cast<std::size_t>(i)]));
  }
  EXPECT_EQ(service.stats().setups_built, kBurst);
  EXPECT_EQ(service.cache().stats().entries, 0u);
}

TEST(ServeService, QueuedAnswersMatchIndividualSolves) {
  auto big = std::make_shared<const CsrMatrix>(testing::grid_laplacian(40, 40));
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(12, 12));
  const SolverOptions opt = small_options();

  // Reference: each request solved alone, one at a time.
  std::vector<std::vector<value_t>> ref;
  {
    SolveService service;
    for (int i = 0; i < 3; ++i) {
      auto r = service.solve(make_request(a, opt, 1, 80 + i));
      ASSERT_EQ(r.status, ServeStatus::Ok);
      ref.push_back(std::move(r.x));
    }
  }

  // The same requests queued together behind a blocker.
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  SolveService service(cfg);
  auto blocker = dispatch_blocker(service, big, opt);
  auto fs = submit_burst(service, a, opt, 3, 1, 80);
  (void)blocker.get();
  for (int i = 0; i < 3; ++i) {
    const auto r = fs[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(r.status, ServeStatus::Ok);
    EXPECT_TRUE(bitwise_equal(r.x, ref[static_cast<std::size_t>(i)]))
        << "queued answer differs from the individually-solved answer";
  }
}

TEST(ServeService, StopDrainsQueuedDeterministically) {
  // The drain contract (relied on by the destructor): stop() rejects new
  // submits, finishes everything already accepted, and returns only once
  // every accepted request has been answered — from any number of racing
  // callers.
  auto big = std::make_shared<const CsrMatrix>(testing::grid_laplacian(40, 40));
  auto a = std::make_shared<const CsrMatrix>(testing::grid_laplacian(12, 12));
  const SolverOptions opt = small_options();
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  SolveService service(cfg);

  // Occupy the single worker slot, then park three requests in the queue.
  auto blocker = dispatch_blocker(service, big, opt);
  std::vector<std::future<serve::SolveResponse>> queued;
  for (int i = 0; i < 3; ++i) {
    queued.push_back(service.submit(make_request(a, opt, 1, 70 + i)));
  }

  // Several threads race stop(); one drains, the rest block until done.
  std::vector<std::thread> stoppers;
  for (int t = 0; t < 3; ++t) stoppers.emplace_back([&] { service.stop(); });
  for (auto& th : stoppers) th.join();

  // Everything accepted before stop() is already answered — no waiting.
  ASSERT_EQ(blocker.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(blocker.get().status, ServeStatus::Ok);
  for (auto& f : queued) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "stop() returned before a queued request was answered";
    EXPECT_EQ(f.get().status, ServeStatus::Ok)
        << "queued request must be finished, not dropped";
  }
  EXPECT_GE(service.stats().completed, 4);

  // Submits after (or racing past) the drain are structurally Rejected.
  const auto late = service.solve(make_request(a, opt, 1, 79));
  EXPECT_EQ(late.status, ServeStatus::Rejected);
  EXPECT_EQ(service.stats().completed, 4) << "late submit must not execute";
}

}  // namespace
}  // namespace pdslin
