// JobTable, the job-state store both execution planes retire through:
// retire() must never free a record an installed plan still names, must
// feed every finalized job exactly once in id order, and must skip
// abandoned records. The planes' own suites (sim_engine_stream_test,
// runtime_conformance_test) check the end-to-end statistics.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/schedule.hpp"
#include "sim/job_table.hpp"

namespace qes {
namespace {

struct Record {
  Job job;
  enum class Phase { Waiting, Finalized } phase = Phase::Finalized;
  double quality = 0.5;
  bool satisfied = true;
  Work processed = 1.0;
  Time finalized_at = 2.0;
  bool abandoned = false;
};

struct Core {
  Schedule plan;
  std::size_t next_seg = 0;
};

using Table = sim::JobTable<Record>;
constexpr std::size_t kChunk = Table::kChunkSize;

Table filled(std::size_t n) {
  Table t(nullptr, "test", 1);
  for (std::size_t k = 0; k < n; ++k) {
    Record r;
    r.job = {.id = k + 1, .release = 0.0, .deadline = 10.0, .demand = 1.0};
    t.push_back(r);
  }
  return t;
}

TEST(JobTable, RetireKeepsJobsNamedByInstalledPlans) {
  const QualityFunction q = QualityFunction::linear(1.0);
  Table t = filled(2 * kChunk + 10);
  std::vector<Core> cores(2);
  // A stale segment on core 1 names a job in the second chunk; the
  // segment before next_seg on core 0 no longer counts.
  cores[0].plan.push({0.0, 1.0, 3, 1.0});
  cores[0].next_seg = 1;
  cores[1].plan.push({1.0, 2.0, kChunk + 3, 1.0});

  t.retire(2 * kChunk + 5, cores, q);
  EXPECT_EQ(t.resident_floor(), kChunk);
  EXPECT_EQ(t[kChunk + 2].job.id, kChunk + 3);  // still resident

  cores[1].next_seg = 1;  // the plan moved past it
  t.retire(2 * kChunk + 5, cores, q);
  EXPECT_EQ(t.resident_floor(), 2 * kChunk);
  EXPECT_EQ(t.resident_jobs(), 10u);
}

TEST(JobTable, FeedsEachJobOnceInIdOrderAndSkipsAbandoned) {
  const QualityFunction q = QualityFunction::linear(1.0);
  Table t = filled(kChunk + 4);
  t[1].abandoned = true;
  t[2].satisfied = false;
  t[2].quality = 0.25;
  const std::vector<Core> idle(1);

  t.retire(kChunk + 1, idle, q);   // feeds [0, kChunk + 1)
  t.retire(kChunk + 1, idle, q);   // nothing new died: no refeed
  t.feed_upto(t.size(), q);        // the end-of-run remainder
  const RunStats s = t.accumulator().finish(0.0, 0.0, 0.0, 10.0, 0);
  EXPECT_EQ(s.jobs_total, kChunk + 3);
  EXPECT_EQ(s.jobs_satisfied, kChunk + 2);
  EXPECT_EQ(s.jobs_partial, 1u);
  EXPECT_DOUBLE_EQ(s.total_quality, 0.5 * (kChunk + 2) + 0.25);
  EXPECT_DOUBLE_EQ(s.max_quality, static_cast<double>(kChunk + 3));
}

TEST(JobTable, FeedingAnUnfinalizedJobAsserts) {
  const QualityFunction q = QualityFunction::linear(1.0);
  Table t = filled(4);
  t[2].phase = Record::Phase::Waiting;
  EXPECT_DEATH(t.feed_upto(4, q), "");
}

}  // namespace
}  // namespace qes
