// Lazy commit of the runq substrate's capacity (src/runq/zero_pages.hpp):
// admission rings and plan cells map their per-capacity arrays from
// anonymous zero pages, so constructing them reserves address space
// without committing memory, and an untouched ring or cell already is
// the valid empty one.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <vector>

#include "runq/admission.hpp"
#include "runq/plan_cell.hpp"
#include "runq/zero_pages.hpp"
#include "runtime/server.hpp"

namespace qes::runq {
namespace {

constexpr std::size_t kMiB = 1u << 20;
constexpr std::size_t kMi = 1u << 20;

/// Resident set size of this process (VmRSS), in bytes.
std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(ZeroPages, ArrayStartsZeroed) {
  ZeroPageArray<std::uint64_t> a(4096);
  EXPECT_EQ(a.size(), 4096u);
  for (std::size_t i = 0; i < a.size(); i += 509) EXPECT_EQ(a[i], 0u);
  a[17] = 5;
  EXPECT_EQ(a[17], 5u);
  ZeroPageArray<std::uint64_t> empty(0);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(ZeroPages, ShardedAdmissionCapacityIsNotCommittedAtConstruction) {
  using Adm = ShardedAdmission<runtime::Request>;
  Adm::Config cfg;
  cfg.shards = 4;
  cfg.capacity_per_shard = kMi;  // 4 x 48 MiB of slots
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  Adm adm(cfg);
  const std::size_t after = resident_bytes();
  EXPECT_LT(after, before + kMiB)
      << "constructing " << cfg.shards << " x " << cfg.capacity_per_shard
      << " slots committed " << (after - before) << " bytes";

  // The untouched rings are the valid empty rings: pushes land, drain in
  // FIFO order, and a whole lap over the first page stays exact.
  std::vector<runtime::Request> out;
  EXPECT_EQ(adm.drain_all(out), 0u);
  for (int i = 0; i < 100; ++i) {
    runtime::Request r;
    r.tag = static_cast<std::uint64_t>(i + 1);
    ASSERT_TRUE(adm.push(r));
  }
  ASSERT_EQ(adm.drain_all(out), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].tag, i + 1);
  }
  const AdmissionLedger led = adm.ledger();
  EXPECT_EQ(led.pushed, 100u);
  EXPECT_EQ(led.drained, 100u);
}

TEST(ZeroPages, PlanCellReadsEmptyBeforeFirstPublish) {
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  PlanCell cell(kMi);  // 32 MiB of payload words
  EXPECT_LT(resident_bytes(), before + kMiB);

  PlanView view;
  view.segments.push_back({1.0, 2.0, 9, 1.0});  // stale reader state
  cell.read(view);
  EXPECT_TRUE(view.segments.empty());
  EXPECT_EQ(view.gen, 0u);
  EXPECT_EQ(view.core_state, CoreState::kActive);

  Schedule plan;
  plan.push({0.0, 1.0, 7, 2.0});
  EXPECT_EQ(cell.publish(plan, 1), 0u);
  cell.read(view);
  ASSERT_EQ(view.segments.size(), 1u);
  EXPECT_EQ(view.segments[0].job, 7u);
  EXPECT_EQ(view.segments[0].speed, 2.0);
  EXPECT_EQ(view.gen, 1u);
}

}  // namespace
}  // namespace qes::runq
