// Bit-identity oracle for the certified LS QoS tables (core/qos_table.h).
//
// For each LS service at the oracle campaign, every slice of the table
// is queried at every segment endpoint and its floating-point
// neighbours, on a strided QPS grid, at random QPS and above the table's
// range. Predictor::ls_qos_ok must return exactly what the classifier's
// predict() returns, and must run (and count) the model only where the
// table proves no label. The oracle runs twice per service: once on the
// deployed set (an MlpClassifier for all three services at this
// campaign) and once with a LogisticRegression fit on the same profiling
// data and its own table, the two families that have an interval pass.
//
// The sharing tests check that one LS model set carries one table, which
// the registry builds once and every predictor of the service answers
// from, and that a table built on a pool equals one built serially.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/features.h"
#include "core/predictor.h"
#include "core/qos_table.h"
#include "core/trainer.h"
#include "exp/model_registry.h"
#include "fake_models.h"
#include "ml/factory.h"
#include "small_config.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sturgeon::core {
namespace {

using testing::small_config;

const MachineSpec m = MachineSpec::xeon_e5_2630_v4();

/// The service's deployed LS set at the oracle campaign, and the same
/// set with a LogisticRegression fit on the same profiling data as its
/// QoS classifier, with its own table.
struct ServiceModels {
  LsModels deployed;
  LsModels lr;
};

const ServiceModels& service_models(const LsProfile& ls) {
  static std::map<std::string, ServiceModels> trained;
  const auto it = trained.find(ls.name);
  if (it != trained.end()) return it->second;
  const LsProfilingData data = collect_ls_profiling(ls, small_config());
  ServiceModels out;
  out.deployed = train_ls_models(data, small_config());
  out.lr = out.deployed;
  auto lr = ml::make_classifier(ml::ModelKind::kLinear, small_config().seed);
  lr->fit(data.x, data.qos_ok);
  out.lr.qos = std::move(lr);
  out.lr.qos_table = nullptr;
  add_qos_table(out.lr, small_config().server.machine);
  return trained.emplace(ls.name, std::move(out)).first->second;
}

/// `ls` with the fake BE models, so the predictor costs no BE training.
TrainedModels with_fake_be(const LsModels& ls) {
  TrainedModels models = testing::fake_models();
  models.ls_qos = ls.qos;
  models.ls_qos_table = ls.qos_table;
  models.ls_power = ls.power;
  return models;
}

/// Every slice with at least one core and one way: the table's slices.
std::vector<AppSlice> table_slices() {
  std::vector<AppSlice> out;
  for (int c = 1; c <= m.num_cores; ++c) {
    for (int f = 0; f <= m.max_freq_level(); ++f) {
      for (int w = 1; w <= m.llc_ways; ++w) out.push_back({c, f, w});
    }
  }
  return out;
}

struct OracleStats {
  std::uint64_t queries = 0;
  std::uint64_t from_table = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t segments = 0;
  double unproven_width = 0.0;  ///< summed over slices
};

/// Query (qps, slice) through the predictor and compare it with the
/// classifier and with the table's own verdict on whether it answers.
void check_query(const Predictor& predictor, const ml::Classifier& qos,
                 double qps, const AppSlice& s, OracleStats& st) {
  const bool want = qos.predict(ls_features(m, qps, s)) == 1;
  const bool in_table =
      predictor.qos_table()->lookup(s, qps) != LsQosTable::kUnproven;
  std::uint64_t calls = 0;
  const std::uint64_t before = predictor.model_invocations();
  const bool got = predictor.ls_qos_ok(qps, s, &calls);
  const std::uint64_t invoked = predictor.model_invocations() - before;
  ++st.queries;
  if (in_table) ++st.from_table;
  const std::uint64_t expected_calls = in_table ? 0 : 1;
  if (got != want || calls != expected_calls || invoked != expected_calls) {
    if (st.mismatches == 0) {
      ADD_FAILURE() << "slice " << s.cores << "/" << s.freq_level << "/"
                    << s.llc_ways << " qps " << qps << ": table says "
                    << got << " with " << calls << " calls (" << invoked
                    << " invocations), model says " << want;
    }
    ++st.mismatches;
  }
}

OracleStats run_oracle(const std::string& service, const LsModels& ls,
                       const std::string& family) {
  const TrainedModels models = with_fake_be(ls);
  EXPECT_EQ(models.ls_qos->name(), family) << service;
  const Predictor predictor(m, models);
  OracleStats st;
  if (predictor.qos_table() == nullptr) {
    ADD_FAILURE() << service << ": no QoS table";
    return st;
  }
  const LsQosTable& table = *predictor.qos_table();
  const ml::Classifier& qos = *models.ls_qos;
  const double top = table.qps_max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(0x7ab1e ^ std::hash<std::string>{}(service));
  for (const AppSlice& s : table_slices()) {
    const auto segs = table.segments(s);
    if (segs.empty()) {
      ADD_FAILURE() << "slice " << s.cores << "/" << s.freq_level << "/"
                    << s.llc_ways << " has no segments";
      continue;
    }
    EXPECT_EQ(segs.back().end, top);
    st.segments += segs.size();
    double start = 0.0;
    for (const LsQosTable::Segment& seg : segs) {
      if (seg.label == LsQosTable::kUnproven) {
        st.unproven_width += seg.end - start;
      }
      for (const double q : {start, seg.end}) {
        check_query(predictor, qos, q, s, st);
        check_query(predictor, qos, std::nextafter(q, kInf), s, st);
        if (q > 0.0) {
          check_query(predictor, qos, std::nextafter(q, -kInf), s, st);
        }
      }
      start = seg.end;
    }
    constexpr int kStrides = 16;
    for (int k = 0; k <= kStrides; ++k) {
      check_query(predictor, qos, top * k / kStrides, s, st);
    }
    for (int k = 0; k < 64; ++k) {
      check_query(predictor, qos, rng.uniform(0.0, top), s, st);
    }
    for (const double q : {std::nextafter(top, kInf), 1.01 * top, 2.0 * top}) {
      check_query(predictor, qos, q, s, st);
    }
  }
  const double slices = static_cast<double>(table_slices().size());
  std::fprintf(
      stdout,
      "%s (%s): %llu segments over %.0f slices, unproven %.3g of the "
      "range; %llu queries, %.4f%% from the table\n",
      service.c_str(), family.c_str(),
      static_cast<unsigned long long>(st.segments), slices,
      st.unproven_width / (slices * top),
      static_cast<unsigned long long>(st.queries),
      100.0 * static_cast<double>(st.from_table) /
          static_cast<double>(st.queries));
  return st;
}

class QosTableOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(QosTableOracle, EveryAnswerMatchesTheClassifier) {
  const OracleStats st =
      run_oracle(GetParam(), service_models(find_ls(GetParam())).deployed,
                 "MlpClassifier");
  EXPECT_EQ(st.mismatches, 0u);
  // The random and strided QPS mostly land in proven segments.
  EXPECT_GT(st.from_table, st.queries / 2);
}

TEST_P(QosTableOracle, EveryLogisticRegressionAnswerMatchesTheClassifier) {
  const OracleStats st =
      run_oracle(GetParam(), service_models(find_ls(GetParam())).lr,
                 "LogisticRegression");
  EXPECT_EQ(st.mismatches, 0u);
  EXPECT_GT(st.from_table, st.queries / 2);
}

INSTANTIATE_TEST_SUITE_P(AllLsServices, QosTableOracle,
                         ::testing::Values("memcached", "xapian", "img-dnn"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(QosTable, NotUsedForAnotherMachine) {
  const TrainedModels models =
      with_fake_be(service_models(find_ls("memcached")).deployed);
  MachineSpec other = m;
  other.freq_ghz.back() += 0.1;
  const Predictor predictor(other, models);
  EXPECT_EQ(predictor.qos_table(), nullptr);
  std::uint64_t calls = 0;
  predictor.ls_qos_ok(1000.0, {4, 2, 6}, &calls);
  EXPECT_EQ(calls, 1u);
}

/// Every slice's segments equal, bit for bit.
void expect_same_table(const LsQosTable& a, const LsQosTable& b) {
  ASSERT_EQ(std::bit_cast<std::uint64_t>(a.qps_max()),
            std::bit_cast<std::uint64_t>(b.qps_max()));
  for (const AppSlice& s : table_slices()) {
    const auto sa = a.segments(s);
    const auto sb = b.segments(s);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t k = 0; k < sa.size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sa[k].end),
                std::bit_cast<std::uint64_t>(sb[k].end));
      ASSERT_EQ(sa[k].label, sb[k].label);
    }
  }
}

TEST(QosTableSharing, OneTablePerLsSetBuiltOnceAndShared) {
  exp::clear_predictor_cache();
  const LsProfile& ls = find_ls("memcached");
  const auto a = exp::predictor_for(ls, find_be("rt"), small_config());
  const auto b = exp::predictor_for(ls, find_be("fd"), small_config());
  const LsModels& models = exp::ls_models_for(ls, small_config());
  ASSERT_NE(models.qos_table, nullptr);
  EXPECT_EQ(a->qos_table(), models.qos_table.get());
  EXPECT_EQ(b->qos_table(), models.qos_table.get());
  EXPECT_EQ(exp::ls_models_for(ls, small_config()).qos_table.get(),
            models.qos_table.get());
  exp::clear_predictor_cache();
}

TEST(QosTableSharing, PoolBuildEqualsSerialBuild) {
  exp::clear_predictor_cache();
  const LsProfile& ls = find_ls("memcached");
  const BeProfile& be = find_be("rt");
  ThreadPool pool(4);
  exp::warm_models({{&ls, &be}}, &pool, small_config());
  const LsModels& warmed = exp::ls_models_for(ls, small_config());
  ASSERT_NE(warmed.qos_table, nullptr);
  const LsQosTable serial(*warmed.qos, small_config().server.machine,
                          kQosTableRange * warmed.profiled_peak_qps);
  expect_same_table(*warmed.qos_table, serial);
  exp::clear_predictor_cache();
}

TEST(QosTable, NoTableWithoutAnIntervalPass) {
  const TrainedModels fake = testing::fake_models();
  EXPECT_FALSE(fake.ls_qos->has_interval_pass());
  EXPECT_THROW(LsQosTable(*fake.ls_qos, m, 1000.0), std::invalid_argument);
  LsModels models;
  models.qos = fake.ls_qos;
  models.power = fake.ls_power;
  models.profiled_peak_qps = 1000.0;
  add_qos_table(models, m);
  EXPECT_EQ(models.qos_table, nullptr);
}

}  // namespace
}  // namespace sturgeon::core
