#include "util/combinations.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

namespace htd::util {
namespace {

TEST(BinomialTest, SmallValues) {
  EXPECT_EQ(BinomialCapped(5, 0), 1);
  EXPECT_EQ(BinomialCapped(5, 1), 5);
  EXPECT_EQ(BinomialCapped(5, 2), 10);
  EXPECT_EQ(BinomialCapped(5, 5), 1);
  EXPECT_EQ(BinomialCapped(5, 6), 0);
  EXPECT_EQ(BinomialCapped(0, 0), 1);
  EXPECT_EQ(BinomialCapped(52, 5), 2598960);
}

TEST(BinomialTest, SaturatesInsteadOfOverflowing) {
  EXPECT_GT(BinomialCapped(200, 100), 0);
  // Exact right below the cap even where result * (n - s + i) would not
  // fit in int64_t (C(61, 30) * 62 > 2^63), and saturated right above it.
  EXPECT_EQ(BinomialCapped(62, 31), 465428353255261088);
  EXPECT_EQ(BinomialCapped(64, 32), 1832624140942590534);
  EXPECT_EQ(BinomialCapped(66, 33), std::numeric_limits<int64_t>::max() / 4);
}

TEST(SubsetEnumeratorTest, EnumeratesAllSizes) {
  SubsetEnumerator en(4, 1, 2);
  std::vector<std::vector<int>> all;
  while (en.Next()) all.push_back(en.indices());
  // 4 singletons + 6 pairs, sizes ascending, lexicographic within size.
  ASSERT_EQ(all.size(), 10u);
  EXPECT_EQ(all[0], (std::vector<int>{0}));
  EXPECT_EQ(all[3], (std::vector<int>{3}));
  EXPECT_EQ(all[4], (std::vector<int>{0, 1}));
  EXPECT_EQ(all[9], (std::vector<int>{2, 3}));
}

TEST(SubsetEnumeratorTest, SizeLargerThanUniverse) {
  SubsetEnumerator en(2, 1, 5);
  int count = 0;
  while (en.Next()) ++count;
  EXPECT_EQ(count, 3);  // {0},{1},{0,1}
}

TEST(SubsetEnumeratorTest, EmptyUniverse) {
  SubsetEnumerator en(0, 1, 3);
  EXPECT_FALSE(en.Next());
}

TEST(SubsetEnumeratorTest, MinSizeZeroYieldsEmptySetFirst) {
  SubsetEnumerator en(3, 0, 1);
  ASSERT_TRUE(en.Next());
  EXPECT_TRUE(en.indices().empty());
  ASSERT_TRUE(en.Next());
  EXPECT_EQ(en.indices(), (std::vector<int>{0}));
}

TEST(FixedFirstEnumeratorTest, PinsFirstElement) {
  FixedFirstEnumerator en(5, 2, 1);
  std::vector<std::vector<int>> all;
  while (en.Next()) all.push_back(en.indices());
  EXPECT_EQ(all, (std::vector<std::vector<int>>{{1, 2}, {1, 3}, {1, 4}}));
}

TEST(FixedFirstEnumeratorTest, SingletonSize) {
  FixedFirstEnumerator en(3, 1, 2);
  ASSERT_TRUE(en.Next());
  EXPECT_EQ(en.indices(), (std::vector<int>{2}));
  EXPECT_FALSE(en.Next());
}

TEST(FixedFirstEnumeratorTest, NoRoomForSubset) {
  FixedFirstEnumerator en(4, 3, 2);  // needs {2,3,?}: impossible
  EXPECT_FALSE(en.Next());
}

TEST(ChunksTest, ChunksPartitionTheSubsetSpace) {
  const int n = 7, k = 3, limit = 4;
  std::set<std::vector<int>> from_chunks;
  for (const SubsetChunk& chunk : MakeSubsetChunks(n, k, limit)) {
    FixedFirstEnumerator en(n, chunk.size, chunk.first);
    while (en.Next()) {
      EXPECT_TRUE(from_chunks.insert(en.indices()).second)
          << "duplicate subset across chunks";
    }
  }
  // Reference: all subsets of size 1..k whose minimum is < limit.
  SubsetEnumerator en(n, 1, k);
  std::set<std::vector<int>> reference;
  while (en.Next()) {
    if (en.indices()[0] < limit) reference.insert(en.indices());
  }
  EXPECT_EQ(from_chunks, reference);
}

TEST(ChunksTest, FirstLimitZeroMeansNoChunks) {
  EXPECT_TRUE(MakeSubsetChunks(5, 2, 0).empty());
}

TEST(ChunksTest, CountMatchesBinomials) {
  // With limit == n, chunk enumeration covers all subsets of sizes 1..k.
  const int n = 9, k = 4;
  long count = 0;
  for (const SubsetChunk& chunk : MakeSubsetChunks(n, k, n)) {
    FixedFirstEnumerator en(n, chunk.size, chunk.first);
    while (en.Next()) ++count;
  }
  long expected = 0;
  for (int s = 1; s <= k; ++s) expected += BinomialCapped(n, s);
  EXPECT_EQ(count, expected);
}

}  // namespace
}  // namespace htd::util
