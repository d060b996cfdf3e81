#include "util/types.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace sturgeon {
namespace {

TEST(MachineSpec, PaperPlatformShape) {
  const auto m = MachineSpec::xeon_e5_2630_v4();
  EXPECT_EQ(m.num_cores, 20);
  EXPECT_EQ(m.llc_ways, 20);
  EXPECT_DOUBLE_EQ(m.min_freq_ghz(), 1.2);
  EXPECT_DOUBLE_EQ(m.max_freq_ghz(), 2.2);
  EXPECT_EQ(m.num_freq_levels(), 11);
  // Paper counts 20 x 10 x 20 x 10 = 40000 with 10 P-states; our table has
  // 11 levels (1.2..2.2 at 0.1 GHz), so the space is 20*11*20*11.
  EXPECT_EQ(m.config_space_size(), 20ull * 11ull * 20ull * 11ull);
}

TEST(MachineSpec, FreqLookupAndInverse) {
  const auto m = MachineSpec::xeon_e5_2630_v4();
  EXPECT_DOUBLE_EQ(m.freq_at(0), 1.2);
  EXPECT_NEAR(m.freq_at(5), 1.7, 1e-12);
  EXPECT_EQ(m.level_for(1.7), 5);
  EXPECT_EQ(m.level_for(0.1), 0);     // clamped low
  EXPECT_EQ(m.level_for(9.9), 10);    // clamped high
  EXPECT_EQ(m.level_for(1.74), 5);    // nearest
  EXPECT_THROW(m.freq_at(-1), std::out_of_range);
  EXPECT_THROW(m.freq_at(11), std::out_of_range);
}

TEST(Partition, ValidityRules) {
  const auto m = MachineSpec::xeon_e5_2630_v4();
  Partition p;
  p.ls = {8, 3, 10};
  p.be = {12, 10, 10};
  EXPECT_TRUE(p.valid_for(m));

  p.be.cores = 13;  // 8 + 13 > 20
  EXPECT_FALSE(p.valid_for(m));
  p.be.cores = 12;

  p.ls.llc_ways = 11;  // 11 + 10 > 20
  EXPECT_FALSE(p.valid_for(m));
  p.ls.llc_ways = 10;

  p.ls.cores = 0;  // both slices must be non-empty
  EXPECT_FALSE(p.valid_for(m));
  p.ls.cores = 8;

  p.be.freq_level = 11;  // out of the P-state table
  EXPECT_FALSE(p.valid_for(m));
}

TEST(Partition, PaperStyleToString) {
  const auto m = MachineSpec::xeon_e5_2630_v4();
  Partition p;
  p.ls = {8, 0, 7};
  p.be = {12, 10, 13};
  EXPECT_EQ(p.to_string(m), "<8C, 1.2F, 7L; 12C, 2.2F, 13L>");
}

TEST(Partition, AllToLsIsInitialAllocation) {
  const auto m = MachineSpec::xeon_e5_2630_v4();
  const auto p = Partition::all_to_ls(m);
  EXPECT_EQ(p.ls.cores, 20);
  EXPECT_EQ(p.ls.llc_ways, 20);
  EXPECT_EQ(p.ls.freq_level, m.max_freq_level());
  EXPECT_EQ(p.be.cores, 0);
}

TEST(Partition, ComplementSlice) {
  const auto m = MachineSpec::xeon_e5_2630_v4();
  const AppSlice ls{4, 4, 6};
  const auto be = Allocation::complement(m, ls, 8);
  EXPECT_EQ(be.cores, 16);
  EXPECT_EQ(be.llc_ways, 14);
  EXPECT_EQ(be.freq_level, 8);
  // Frequency level is clamped into the table.
  EXPECT_EQ(Allocation::complement(m, ls, 99).freq_level, m.max_freq_level());
  EXPECT_EQ(Allocation::complement(m, ls, -3).freq_level, 0);
}

TEST(Allocation, PairRoundTripAndComplement) {
  const auto big = MachineSpec::xeon_e5_2630_v4();
  Partition p;
  p.ls = {6, big.max_freq_level(), 8};
  p.be = Allocation::complement(big, p.ls, 2);
  EXPECT_EQ(p.be.cores, big.num_cores - 6);
  EXPECT_EQ(p.be.llc_ways, big.llc_ways - 8);
  EXPECT_EQ(p.be.freq_level, 2);
  const Allocation a = Allocation::of(p);
  ASSERT_EQ(a.size(), 2);
  EXPECT_EQ(a.to_partition(), p);
  // Slice 0 owns the machine, two empty slices: not pair-shaped.
  const Allocation three(std::vector<AppSlice>{
      {big.num_cores, big.max_freq_level(), big.llc_ways}, {}, {}});
  EXPECT_THROW(three.to_partition(), std::invalid_argument);
}

}  // namespace
}  // namespace sturgeon
