// Seqlock PlanCell unit tests (src/runq/plan_cell.hpp): publish/read
// roundtrips, generation tracking, overflow truncation, and the
// reader-buffer no-reallocation guarantee the zero-alloc pacing path
// depends on.
#include "runq/plan_cell.hpp"

#include <gtest/gtest.h>

#include "core/schedule.hpp"

namespace qes::runq {
namespace {

Schedule make_plan(std::size_t segments, double base, JobId job0 = 1) {
  Schedule plan;
  for (std::size_t i = 0; i < segments; ++i) {
    const double d = static_cast<double>(i);
    plan.push({base + d, base + d + 1.0, job0 + static_cast<JobId>(i),
               1.0 + 0.5 * d});
  }
  return plan;
}

TEST(PlanCell, PublishReadRoundtrip) {
  PlanCell cell(16);
  const Schedule plan = make_plan(5, 10.0);
  EXPECT_EQ(cell.publish(plan, 1), 0u);
  PlanView view;
  view.reserve(16);
  cell.read(view);
  EXPECT_EQ(view.gen, 1u);
  ASSERT_EQ(view.segments.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(view.segments[i].t0, plan[i].t0);
    EXPECT_EQ(view.segments[i].t1, plan[i].t1);
    EXPECT_EQ(view.segments[i].job, plan[i].job);
    EXPECT_EQ(view.segments[i].speed, plan[i].speed);
  }
}

TEST(PlanCell, UnpublishedCellReadsEmptyGenZero) {
  PlanCell cell(4);
  PlanView view;
  view.reserve(4);
  cell.read(view);
  EXPECT_EQ(view.gen, 0u);
  EXPECT_TRUE(view.segments.empty());
  EXPECT_EQ(cell.generation(), 0u);
}

TEST(PlanCell, RepublishReplacesAndShrinks) {
  PlanCell cell(8);
  EXPECT_EQ(cell.publish(make_plan(6, 0.0), 1), 0u);
  EXPECT_EQ(cell.publish(make_plan(2, 100.0, 50), 2), 0u);
  PlanView view;
  view.reserve(8);
  cell.read(view);
  EXPECT_EQ(view.gen, 2u);
  ASSERT_EQ(view.segments.size(), 2u);  // stale tail must not leak
  EXPECT_EQ(view.segments[0].t0, 100.0);
  EXPECT_EQ(view.segments[0].job, 50u);
  EXPECT_EQ(cell.generation(), 2u);
}

TEST(PlanCell, OverflowTruncatesAndCounts) {
  PlanCell cell(3);
  EXPECT_EQ(cell.capacity(), 3u);
  EXPECT_EQ(cell.publish(make_plan(7, 0.0), 1), 4u);
  PlanView view;
  view.reserve(3);
  cell.read(view);
  ASSERT_EQ(view.segments.size(), 3u);
  // The kept prefix is the earliest segments — the ones the pacing
  // worker needs next; it goes idle until the next publication when
  // it exhausts the truncated plan.
  EXPECT_EQ(view.segments[0].t0, 0.0);
  EXPECT_EQ(view.segments[2].t0, 2.0);
}

TEST(PlanCell, ReservedViewNeverReallocates) {
  PlanCell cell(32);
  PlanView view;
  view.reserve(32);
  const std::size_t cap_before = view.segments.capacity();
  for (std::uint64_t gen = 1; gen <= 20; ++gen) {
    cell.publish(make_plan((gen * 7) % 33, 0.0), gen);
    cell.read(view);
    EXPECT_EQ(view.gen, gen);
  }
  EXPECT_EQ(view.segments.capacity(), cap_before);
}

}  // namespace
}  // namespace qes::runq
