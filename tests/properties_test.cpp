// Property-style sweeps across the statistical and timing layers:
// parameter-grid recovery for the EVT estimators, pWCET dominance
// invariants, and exact stall accounting for the LEON3-class timing model.
#include "isa/builder.hpp"
#include "mbpta/mbpta.hpp"
#include "rng/distributions.hpp"
#include "rng/mwc.hpp"
#include "vm_harness.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace proxima;
using namespace proxima::isa;
using proxima::test::TestMachine;

// ---------------------------------------------------------------------------
// EVT estimator recovery over a (location, scale, block-size) grid.
// ---------------------------------------------------------------------------

struct GumbelCase {
  double location;
  double scale;
  std::uint32_t block;
};

class GumbelGrid : public ::testing::TestWithParam<GumbelCase> {};

TEST_P(GumbelGrid, FitRecoversParametersAndBounds) {
  const GumbelCase param = GetParam();
  rng::Mwc rng(static_cast<std::uint64_t>(param.location) * 31 +
               param.block);
  std::vector<double> samples;
  constexpr int kSamples = 6000;
  samples.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    samples.push_back(
        rng::sample_gumbel(rng, param.location, param.scale));
  }
  const auto model = mbpta::PwcetModel::fit_block_maxima(samples, param.block);

  // Block maxima of Gumbel(mu, beta) are Gumbel(mu + beta ln B, beta):
  // the fit must recover the transformed location and the same scale.
  const double expected_location =
      param.location + param.scale * std::log(static_cast<double>(param.block));
  EXPECT_NEAR(model.info().gumbel.location, expected_location,
              6.0 * param.scale / std::sqrt(kSamples / param.block))
      << "block " << param.block;
  EXPECT_NEAR(model.info().gumbel.scale, param.scale, 0.25 * param.scale);

  // Dominance: the pWCET at any exceedance must not fall below the
  // empirical quantile at the same level within the sampled range.
  const mbpta::Summary summary = mbpta::summarise(samples);
  EXPECT_GE(model.pwcet(1e-9), summary.max * 0.999);
  // Monotone in the exceedance probability, over the model's valid range
  // (p < 1/block_size; larger probabilities are body quantiles and throw).
  double previous = 0.0;
  for (int decade = 2; decade <= 15; ++decade) {
    const double p = std::pow(10.0, -decade);
    if (p >= model.max_exceedance()) {
      continue;
    }
    const double value = model.pwcet(p);
    EXPECT_GT(value, previous);
    previous = value;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GumbelGrid,
    ::testing::Values(GumbelCase{1000.0, 5.0, 20},
                      GumbelCase{1000.0, 5.0, 100},
                      GumbelCase{250000.0, 80.0, 50},
                      GumbelCase{250000.0, 800.0, 50},
                      GumbelCase{50.0, 0.5, 30},
                      GumbelCase{1e7, 1000.0, 60}));

// Block-size robustness: for the same data, different block sizes must
// produce deep-tail estimates within a modest band of each other (the
// estimator is consistent, not block-size-driven).
TEST(PwcetProperties, BlockSizeRobustness) {
  rng::Mwc rng(77);
  std::vector<double> samples;
  for (int i = 0; i < 12000; ++i) {
    samples.push_back(rng::sample_gumbel(rng, 10000.0, 25.0));
  }
  const double p = 1e-13;
  const double a = mbpta::PwcetModel::fit_block_maxima(samples, 25).pwcet(p);
  const double b = mbpta::PwcetModel::fit_block_maxima(samples, 50).pwcet(p);
  const double c = mbpta::PwcetModel::fit_block_maxima(samples, 100).pwcet(p);
  EXPECT_NEAR(b / a, 1.0, 0.05);
  EXPECT_NEAR(c / b, 1.0, 0.05);
}

// More samples must not make the estimate wildly unstable (convergence).
TEST(PwcetProperties, EstimateStabilisesWithSampleSize) {
  rng::Mwc rng(88);
  std::vector<double> samples;
  std::vector<double> estimates;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 2000; ++i) {
      samples.push_back(rng::sample_gumbel(rng, 5000.0, 12.0));
    }
    estimates.push_back(
        mbpta::PwcetModel::fit_block_maxima(samples, 50).pwcet(1e-12));
  }
  for (std::size_t i = 1; i < estimates.size(); ++i) {
    EXPECT_NEAR(estimates[i] / estimates[i - 1], 1.0, 0.03) << i;
  }
}

// ---------------------------------------------------------------------------
// Exact stall accounting of the timing model: straight-line code with a
// known access pattern must cost exactly base + configured penalties.
// ---------------------------------------------------------------------------

TEST(TimingModel, StraightLineNopsCostBasePlusFetchMisses) {
  // 64 nops + halt = 65 instructions in 9 lines (32B = 8 instructions).
  FunctionBuilder fb("main");
  for (int i = 0; i < 64; ++i) {
    fb.nop();
  }
  fb.halt();
  Program program;
  program.functions.push_back(std::move(fb).build());
  program.entry = "main";
  TestMachine machine(program);
  machine.run();

  const std::uint64_t lines = (65 + 7) / 8 + ((65 % 8) ? 0 : 0);
  const std::uint64_t fetch_stall =
      lines * (mem::kBusCycles + mem::kL2HitCycles + mem::kDramReadCycles);
  // One ITLB walk for the single code page.
  const std::uint64_t expected = 65 + fetch_stall + mem::kTlbWalkCycles;
  EXPECT_EQ(machine.cpu.cycles(), expected);
  EXPECT_EQ(machine.hierarchy.counters().icache_miss, lines);
}

TEST(TimingModel, LoadMissChargesBusL2AndDram) {
  FunctionBuilder fb("main");
  fb.load_address(kO0, "buf"); // 2 instructions
  fb.ld(kO1, kO0, 0);          // cold load
  fb.ld(kO2, kO0, 4);          // same line: hit
  fb.halt();
  Program program;
  program.functions.push_back(std::move(fb).build());
  program.data.push_back(DataObject{.name = "buf", .size = 32, .align = 32});
  program.entry = "main";
  TestMachine machine(program);

  machine.run();
  // Expected: 5 instr base + 1 load_use x2 + code fetch (1 line) +
  // ITLB + DTLB walks + one data miss through L2 to DRAM.
  const std::uint64_t miss_stall =
      mem::kBusCycles + mem::kL2HitCycles + mem::kDramReadCycles;
  const std::uint64_t expected = 5 + 2 * vm::kLoadUseCycles + 2 * miss_stall +
                                 2 * mem::kTlbWalkCycles;
  EXPECT_EQ(machine.cpu.cycles(), expected);
  EXPECT_EQ(machine.hierarchy.counters().dcache_miss, 1u);
}

TEST(TimingModel, TakenBranchCostsPenalty) {
  // Two programs, same instruction count: one falls through, one takes a
  // branch; the difference is exactly the taken penalty.
  auto cycles_for = [](bool taken) {
    FunctionBuilder fb("main");
    fb.li(kO0, taken ? 0 : 1);
    fb.subcci(kO0, 0);
    fb.be("target"); // taken iff o0 == 0
    fb.nop();
    fb.label("target");
    fb.halt();
    Program program;
    program.functions.push_back(std::move(fb).build());
    program.entry = "main";
    TestMachine machine(program);
    machine.run();
    return machine.cpu.cycles() +
           (taken ? 1 : 0); // taken path skips one nop: add it back
  };
  const std::uint64_t not_taken = cycles_for(false);
  const std::uint64_t taken = cycles_for(true);
  EXPECT_EQ(taken - not_taken, vm::kBranchTakenPenalty);
}

TEST(TimingModel, MulDivLatenciesExact) {
  auto cycles_for = [](Opcode op, int extra_ops) {
    FunctionBuilder fb("main");
    fb.li(kO0, 48);
    fb.li(kO1, 6);
    for (int i = 0; i < extra_ops; ++i) {
      fb.op3(op, kO2, kO0, kO1);
    }
    fb.halt();
    Program program;
    program.functions.push_back(std::move(fb).build());
    program.entry = "main";
    TestMachine machine(program);
    machine.run();
    return machine.cpu.cycles();
  };
  EXPECT_EQ(cycles_for(Opcode::kMul, 4) - cycles_for(Opcode::kMul, 0),
            4 * vm::kMulCycles);
  EXPECT_EQ(cycles_for(Opcode::kDiv, 4) - cycles_for(Opcode::kDiv, 0),
            4 * vm::kDivCycles);
}

} // namespace
