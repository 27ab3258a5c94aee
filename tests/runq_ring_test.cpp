// Unit + property tests for the bounded lock-free MPSC admission ring
// (src/runq/ring.hpp): FIFO order, exact logical capacity (including
// non-power-of-two and capacity-1 bounds the Vyukov slot encoding can't
// represent directly), prefix-accepting batch pushes, close semantics,
// and a randomized differential against a std::deque reference model.
#include "runq/ring.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "core/prng.hpp"

namespace qes::runq {
namespace {

TEST(MpscRing, FifoSingleThread) {
  MpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_push(i));
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));
  EXPECT_TRUE(ring.empty());
}

TEST(MpscRing, ExactLogicalCapacity) {
  for (const std::size_t cap : {1u, 2u, 3u, 5u, 8u, 13u}) {
    MpscRing<int> ring(cap);
    EXPECT_EQ(ring.capacity(), cap);
    for (std::size_t i = 0; i < cap; ++i) {
      EXPECT_TRUE(ring.try_push(static_cast<int>(i))) << "cap=" << cap;
    }
    EXPECT_FALSE(ring.try_push(99)) << "cap=" << cap;
    EXPECT_EQ(ring.approx_size(), cap);
    int v = -1;
    EXPECT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 0);
    // One pop frees exactly one slot.
    EXPECT_TRUE(ring.try_push(100));
    EXPECT_FALSE(ring.try_push(101));
  }
}

TEST(MpscRing, WrapAroundManyTimes) {
  // Each lap moves every slot's stored (index-relative) sequence on by
  // the slot count. Capacities 2 and 4 fill their slot arrays exactly,
  // so full bursts also check the "full" test across laps; bursts cycle
  // through every length so the cursors visit every slot offset.
  for (const std::size_t cap : {2u, 3u, 4u}) {
    SCOPED_TRACE(cap);
    MpscRing<int> ring(cap);
    int next = 0;
    int expect = 0;
    int v = -1;
    for (std::size_t round = 0; round < 1000; ++round) {
      const std::size_t burst = 1 + round % cap;
      for (std::size_t k = 0; k < burst; ++k) {
        ASSERT_TRUE(ring.try_push(next++));
      }
      if (burst == cap) {
        EXPECT_FALSE(ring.try_push(-1));
      }
      for (std::size_t k = 0; k < burst; ++k) {
        ASSERT_TRUE(ring.try_pop(v));
        EXPECT_EQ(v, expect++);
      }
      EXPECT_FALSE(ring.try_pop(v));
    }
    EXPECT_TRUE(ring.empty());
  }
}

TEST(MpscRing, PushManyAcceptsLongestPrefix) {
  MpscRing<int> ring(4);
  const int items[6] = {10, 11, 12, 13, 14, 15};
  EXPECT_EQ(ring.try_push_many(items, 6), 4u);
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 10 + i);  // the accepted prefix, in order
  }
  EXPECT_EQ(ring.try_push_many(items, 0), 0u);
}

TEST(MpscRing, CloseFailsPushesButDrainsBufferedItems) {
  MpscRing<int> ring(8);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  ring.close();
  EXPECT_TRUE(ring.closed());
  EXPECT_FALSE(ring.try_push(3));
  EXPECT_EQ(ring.try_push_many(nullptr, 0), 0u);
  int v = -1;
  EXPECT_TRUE(ring.try_pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(ring.try_pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(ring.try_pop(v));
}

// Differential property: a random single-threaded push/pop interleaving
// matches a std::deque bounded-queue reference model item for item.
TEST(MpscRing, RandomOpsMatchDequeReference) {
  Xoshiro256 rng(20260810u);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t cap = 1 + static_cast<std::size_t>(rng.next_u64() % 9);
    MpscRing<int> ring(cap);
    std::deque<int> ref;
    int next = 0;
    for (int op = 0; op < 2000; ++op) {
      if (rng.next_u64() % 2 == 0) {
        const bool pushed = ring.try_push(next);
        const bool ref_pushed = ref.size() < cap;
        ASSERT_EQ(pushed, ref_pushed) << "cap=" << cap << " op=" << op;
        if (ref_pushed) ref.push_back(next);
        ++next;
      } else {
        int got = -1;
        const bool popped = ring.try_pop(got);
        ASSERT_EQ(popped, !ref.empty());
        if (popped) {
          ASSERT_EQ(got, ref.front());
          ref.pop_front();
        }
      }
      ASSERT_EQ(ring.approx_size(), ref.size());
    }
  }
}

}  // namespace
}  // namespace qes::runq
