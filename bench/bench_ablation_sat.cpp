// Ablation A3 (DESIGN.md): WalkSAT (the paper's solver choice [30]),
// the old recursive DPLL, the watched-literal CDCL, and the paper's
// configuration (WalkSAT, then CDCL when it gives up), both on the
// insertion encodings the view-update translation produces (tiny,
// Boolean) and on random 3-SAT near the satisfiability threshold.
//
// Shapes to check: on translation-sized encodings everything is instant;
// on hard random instances the recursive DPLL blows up exponentially
// while CDCL's clause learning keeps it polynomial-ish — and WalkSAT
// degrades gracefully on the satisfiable side. The end-to-end rows
// translate buddy insertions with the default solver (CDCL) and with
// WalkSAT first; the latter's walksat_win_frac is the paper's measure
// (the share of solver runs WalkSAT answered, 78% in its Section 6).
// Both rows surface the SAT counters (propagations, conflicts, learned clauses,
// flips, runs) as deltas of the registry's xvu.sat.* counters — the
// same numbers a runtime metrics dump reports.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/sat/cdcl.h"
#include "src/sat/portfolio.h"
#include "src/sat/walksat.h"
#include "tests/oracles/dpll_oracle.h"

namespace xvu {
namespace bench {
namespace {

Cnf Random3Sat(int nv, double ratio, uint64_t seed) {
  Rng rng(seed);
  Cnf cnf;
  for (int i = 0; i < nv; ++i) cnf.NewVar();
  int nc = static_cast<int>(ratio * nv);
  for (int c = 0; c < nc; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      int32_t v = 1 + static_cast<int32_t>(rng.Below(
                          static_cast<uint64_t>(nv)));
      clause.push_back(rng.Chance(0.5) ? v : -v);
    }
    cnf.AddClause(std::move(clause));
  }
  return cnf;
}

void BM_WalkSatRandom(benchmark::State& state) {
  int nv = static_cast<int>(state.range(0));
  uint64_t seed = 3000;
  size_t solved = 0, total = 0;
  SatStats stats;
  for (auto _ : state) {
    Cnf cnf = Random3Sat(nv, 4.0, seed++);
    SatResult r = SolveWalkSat(cnf, {}, &stats);
    if (r.kind == SatResult::Kind::kSat) ++solved;
    ++total;
  }
  state.counters["solved_frac"] =
      total == 0 ? 0 : static_cast<double>(solved) / static_cast<double>(total);
  state.counters["flips"] = static_cast<double>(stats.flips);
}

void BM_DpllRecursiveRandom(benchmark::State& state) {
  int nv = static_cast<int>(state.range(0));
  uint64_t seed = 3000;
  size_t sat = 0, total = 0;
  for (auto _ : state) {
    Cnf cnf = Random3Sat(nv, 4.0, seed++);
    SatResult r = oracles::SolveDpllRecursive(cnf);
    if (r.kind == SatResult::Kind::kSat) ++sat;
    ++total;
  }
  state.counters["sat_frac"] =
      total == 0 ? 0 : static_cast<double>(sat) / static_cast<double>(total);
}

void BM_CdclRandom(benchmark::State& state) {
  int nv = static_cast<int>(state.range(0));
  uint64_t seed = 3000;
  size_t sat = 0, total = 0;
  SatStats stats;
  for (auto _ : state) {
    Cnf cnf = Random3Sat(nv, 4.0, seed++);
    SatResult r = SolveCdcl(cnf, {}, &stats);
    if (r.kind == SatResult::Kind::kSat) ++sat;
    ++total;
  }
  state.counters["sat_frac"] =
      total == 0 ? 0 : static_cast<double>(sat) / static_cast<double>(total);
  state.counters["conflicts"] = static_cast<double>(stats.conflicts);
  state.counters["propagations"] = static_cast<double>(stats.propagations);
  state.counters["learned"] = static_cast<double>(stats.learned_clauses);
}

void BM_WalkSatThenCdclRandom(benchmark::State& state) {
  int nv = static_cast<int>(state.range(0));
  uint64_t seed = 3000;
  size_t sat = 0, total = 0;
  PortfolioOptions opts;
  opts.walksat_lanes = 1;  // WalkSAT, then CDCL on give-up
  for (auto _ : state) {
    Cnf cnf = Random3Sat(nv, 4.0, seed++);
    SatResult r = SolvePortfolio(cnf, opts);
    if (r.kind == SatResult::Kind::kSat) ++sat;
    ++total;
  }
  state.counters["sat_frac"] =
      total == 0 ? 0 : static_cast<double>(sat) / static_cast<double>(total);
}

/// End-to-end: buddy insertions (Example 8 gadget) translated with
/// `walksat_lanes` = 0 (CDCL, the default) or 1 (WalkSAT, then CDCL).
void BM_BuddyInsertTranslation(benchmark::State& state,
                               size_t walksat_lanes) {
  SyntheticSpec spec;
  spec.num_c = 2000;
  spec.k_coverage = 0.0;
  spec.g_uniform_prob = 0.8;
  spec.seed = 99;
  auto db = MakeSyntheticDatabase(spec);
  if (!db.ok()) {
    state.SkipWithError("dataset");
    return;
  }
  auto atg = MakeSyntheticAtg(*db);
  UpdateSystem::Options opts;
  opts.insert.portfolio.walksat_lanes = walksat_lanes;
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db), opts);
  if (!sys.ok()) {
    state.SkipWithError("publish");
    return;
  }
  int64_t fresh_g = 10000000;
  int64_t parent = 1;
  size_t accepted = 0, total = 0, sat_ops = 0, walksat_wins = 0;
  double sat_s = 0;
  // Solver counters come from the registry, not UpdateStats: snapshot
  // before, report the delta after.
  const uint64_t props0 = RegistryCounter("xvu.sat.propagations");
  const uint64_t conflicts0 = RegistryCounter("xvu.sat.conflicts");
  const uint64_t learned0 = RegistryCounter("xvu.sat.learned_clauses");
  const uint64_t flips0 = RegistryCounter("xvu.sat.flips");
  const uint64_t runs0 = RegistryCounter("xvu.sat.runs");
  for (auto _ : state) {
    std::string stmt = "insert B(" + std::to_string(++fresh_g) +
                       ") into //C[cid=\"" + std::to_string(++parent) +
                       "\"]/buddies";
    const uint64_t runs_before = RegistryCounter("xvu.sat.runs");
    Status st = (*sys)->ApplyStatement(stmt);
    const UpdateStats& us = (*sys)->last_stats();
    sat_s += us.sat_seconds;
    // A rejected op leaves no solver stats in last_stats(), so whether a
    // solver ran is read from the registry.
    if (RegistryCounter("xvu.sat.runs") > runs_before) {
      ++sat_ops;
      if (us.used_sat && us.sat_winner_lane == 0) ++walksat_wins;
    }
    if (st.ok()) ++accepted;
    ++total;
    if (parent > 1900) parent = 1;
  }
  state.counters["accept_frac"] =
      total == 0 ? 0
                 : static_cast<double>(accepted) / static_cast<double>(total);
  state.counters["sat_propagations"] =
      static_cast<double>(RegistryCounter("xvu.sat.propagations") - props0);
  state.counters["sat_conflicts"] =
      static_cast<double>(RegistryCounter("xvu.sat.conflicts") - conflicts0);
  state.counters["sat_learned"] =
      static_cast<double>(RegistryCounter("xvu.sat.learned_clauses") - learned0);
  state.counters["sat_flips"] =
      static_cast<double>(RegistryCounter("xvu.sat.flips") - flips0);
  state.counters["sat_runs"] =
      static_cast<double>(RegistryCounter("xvu.sat.runs") - runs0);
  state.counters["sat_ms"] = sat_s * 1e3;
  if (walksat_lanes > 0) {
    state.counters["walksat_win_frac"] =
        sat_ops == 0 ? 0
                     : static_cast<double>(walksat_wins) /
                           static_cast<double>(sat_ops);
  }
}

void RegisterAll() {
  for (int nv : {20, 40, 60}) {
    benchmark::RegisterBenchmark("AblationA3_WalkSat_random3sat",
                                 BM_WalkSatRandom)
        ->Arg(nv)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(5);
    benchmark::RegisterBenchmark("AblationA3_DPLLrecursive_random3sat",
                                 BM_DpllRecursiveRandom)
        ->Arg(nv)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(5);
    benchmark::RegisterBenchmark("AblationA3_CDCL_random3sat", BM_CdclRandom)
        ->Arg(nv)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(5);
    benchmark::RegisterBenchmark("AblationA3_WalkSatThenCDCL_random3sat",
                                 BM_WalkSatThenCdclRandom)
        ->Arg(nv)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(5);
  }
  benchmark::RegisterBenchmark("AblationA3_translate_cdcl",
                               BM_BuddyInsertTranslation, size_t{0})
      ->Unit(benchmark::kMillisecond)
      ->Iterations(20);
  benchmark::RegisterBenchmark("AblationA3_translate_walksat_first",
                               BM_BuddyInsertTranslation, size_t{1})
      ->Unit(benchmark::kMillisecond)
      ->Iterations(20);
}

}  // namespace
}  // namespace bench
}  // namespace xvu

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  xvu::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
