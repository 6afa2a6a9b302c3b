#include "src/sat/portfolio.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/sat/cdcl.h"
#include "src/sat/walksat.h"

namespace xvu {
namespace {

Cnf Random3Cnf(Rng* rng, int nv, int nc) {
  Cnf cnf;
  for (int i = 0; i < nv; ++i) cnf.NewVar();
  for (int c = 0; c < nc; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      int32_t v =
          1 + static_cast<int32_t>(rng->Below(static_cast<uint64_t>(nv)));
      clause.push_back(rng->Chance(0.5) ? v : -v);
    }
    cnf.AddClause(std::move(clause));
  }
  return cnf;
}

Cnf UnsatXorChain() {
  Cnf cnf;
  int32_t a = cnf.NewVar(), b = cnf.NewVar(), c = cnf.NewVar();
  auto add_xor = [&](int32_t x, int32_t y) {
    cnf.AddBinary(x, y);
    cnf.AddBinary(-x, -y);
  };
  add_xor(a, b);
  add_xor(b, c);
  add_xor(a, c);
  return cnf;
}

/// Pigeonhole 5 pigeons / 4 holes: unsatisfiable and hard enough that a
/// 1-conflict CDCL budget cannot refute it.
Cnf Pigeonhole() {
  constexpr int kPigeons = 5, kHoles = 4;
  Cnf cnf;
  int32_t p[kPigeons][kHoles];
  for (int i = 0; i < kPigeons; ++i)
    for (int h = 0; h < kHoles; ++h) p[i][h] = cnf.NewVar();
  for (int i = 0; i < kPigeons; ++i) {
    std::vector<Lit> some_hole(p[i], p[i] + kHoles);
    cnf.AddClause(std::move(some_hole));
  }
  for (int h = 0; h < kHoles; ++h)
    for (int i = 0; i < kPigeons; ++i)
      for (int j = i + 1; j < kPigeons; ++j) cnf.AddBinary(-p[i][h], -p[j][h]);
  return cnf;
}

/// The portfolio's semantics computed without it: WalkSAT (when enabled),
/// then CDCL whenever WalkSAT gives up.
SatResult SequentialOracle(const Cnf& cnf, const PortfolioOptions& opts) {
  if (opts.walksat_lanes > 0) {
    SatResult ws = SolveWalkSat(cnf, opts.walksat);
    if (ws.kind != SatResult::Kind::kUnknown) return ws;
  }
  return SolveCdcl(cnf, opts.cdcl);
}

TEST(Portfolio, MatchesSequentialOracle) {
  Rng rng(4242);
  for (int inst = 0; inst < 25; ++inst) {
    int nv = 10 + static_cast<int>(rng.Below(15));
    int nc = static_cast<int>(rng.Below(static_cast<uint64_t>(5 * nv))) + nv;
    Cnf cnf = Random3Cnf(&rng, nv, nc);
    for (size_t lanes : {size_t{0}, size_t{1}}) {
      PortfolioOptions opts;
      opts.walksat_lanes = lanes;
      opts.walksat.max_flips = 2000;  // keep the unsat instances cheap
      SatResult oracle = SequentialOracle(cnf, opts);
      PortfolioStats stats;
      SatResult r = SolvePortfolio(cnf, opts, &stats);
      ASSERT_EQ(r.kind, oracle.kind)
          << "instance " << inst << " lanes " << lanes;
      EXPECT_EQ(r.model, oracle.model)
          << "instance " << inst << " lanes " << lanes;
      // CDCL is complete, so some solver always answers.
      ASSERT_NE(r.kind, SatResult::Kind::kUnknown);
      if (r.kind == SatResult::Kind::kSat) {
        EXPECT_TRUE(cnf.IsSatisfiedBy(r.model));
      }
      if (r.kind == SatResult::Kind::kUnsat || lanes == 0) {
        EXPECT_EQ(stats.winner_lane, static_cast<int>(lanes));
      }
    }
  }
}

TEST(Portfolio, WalkSatAnswersFirstWhenEnabled) {
  Rng rng(11);
  Cnf cnf = Random3Cnf(&rng, 20, 60);  // low ratio: satisfiable
  PortfolioOptions opts;
  opts.walksat_lanes = 1;
  PortfolioStats stats;
  SatResult r = SolvePortfolio(cnf, opts, &stats);
  ASSERT_EQ(r.kind, SatResult::Kind::kSat);
  EXPECT_TRUE(cnf.IsSatisfiedBy(r.model));
  EXPECT_EQ(stats.winner_lane, 0);
  EXPECT_GT(stats.totals.flips, 0u);
}

TEST(Portfolio, CdclProvesUnsatAfterWalkSatGivesUp) {
  PortfolioOptions opts;
  opts.walksat_lanes = 1;
  opts.walksat.max_tries = 1;
  opts.walksat.max_flips = 100;
  PortfolioStats stats;
  EXPECT_EQ(SolvePortfolio(UnsatXorChain(), opts, &stats).kind,
            SatResult::Kind::kUnsat);
  EXPECT_EQ(stats.winner_lane, 1);
  EXPECT_EQ(stats.totals.flips, 100u);
}

TEST(Portfolio, CdclOnlyByDefault) {
  Rng rng(55);
  Cnf cnf = Random3Cnf(&rng, 20, 80);
  PortfolioStats stats;
  SatResult r = SolvePortfolio(cnf, {}, &stats);
  SatResult oracle = SolveCdcl(cnf);
  ASSERT_EQ(r.kind, oracle.kind);
  EXPECT_EQ(r.model, oracle.model);
  EXPECT_EQ(stats.winner_lane, 0);
  EXPECT_EQ(stats.totals.flips, 0u);
}

TEST(Portfolio, CappedCdclCanReturnUnknown) {
  // With a conflict-capped CDCL and a budget-capped WalkSAT a hard unsat
  // instance exhausts both: kUnknown is the honest answer.
  Cnf cnf = Pigeonhole();
  PortfolioOptions opts;
  opts.cdcl.max_conflicts = 1;
  opts.walksat.max_tries = 1;
  opts.walksat.max_flips = 50;
  for (size_t lanes : {size_t{0}, size_t{1}}) {
    opts.walksat_lanes = lanes;
    PortfolioStats stats;
    EXPECT_EQ(SolvePortfolio(cnf, opts, &stats).kind,
              SatResult::Kind::kUnknown);
    EXPECT_EQ(stats.winner_lane, -1);
  }
}

}  // namespace
}  // namespace xvu
