/**
 * @file
 * Unit tests for the hot-path containers introduced by the engine
 * speed campaign: SmallVector (inline-storage vector, which also holds
 * the modeling steps' per-evaluation scratch) and FlatMatrix
 * (contiguous [level][tensor] grid). These run under the ASan+UBSan
 * CI job as well — growth past the inline buffer and row-pointer
 * indexing are exactly the places a lifetime bug would hide.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <utility>

#include "common/flat_matrix.hh"
#include "common/small_vector.hh"

namespace sparseloop {
namespace {

TEST(SmallVector, StaysInlineUpToCapacityThenSpills)
{
    SmallVector<std::int64_t, 4> v;
    EXPECT_TRUE(v.empty());
    EXPECT_TRUE(v.inlineStorage());
    for (std::int64_t i = 0; i < 4; ++i) {
        v.push_back(i);
    }
    EXPECT_TRUE(v.inlineStorage());
    EXPECT_EQ(v.size(), 4u);
    v.push_back(4);  // spills to the heap
    EXPECT_FALSE(v.inlineStorage());
    EXPECT_EQ(v.size(), 5u);
    for (std::int64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
    }
}

TEST(SmallVector, AssignResizeAndEquality)
{
    TileExtents a;
    a.assign(3, 7);
    TileExtents b;
    b.assign(3, 7);
    EXPECT_EQ(a, b);
    b[2] = 8;
    EXPECT_NE(a, b);
    a.resize(5, 1);
    EXPECT_EQ(a.size(), 5u);
    EXPECT_EQ(a[0], 7);
    EXPECT_EQ(a[4], 1);
    a.resize(2);
    EXPECT_EQ(a.size(), 2u);
    EXPECT_EQ(volume(a), 49);
}

TEST(SmallVector, CopyAndMovePreserveValuesAcrossSpill)
{
    SmallVector<std::string, 2> v;
    for (int i = 0; i < 6; ++i) {
        v.push_back("elem-" + std::to_string(i));
    }
    SmallVector<std::string, 2> copy(v);
    EXPECT_EQ(copy, v);
    SmallVector<std::string, 2> moved(std::move(v));
    EXPECT_EQ(moved, copy);
    // Move-from-inline path.
    SmallVector<std::string, 8> small;
    small.push_back("x");
    SmallVector<std::string, 8> small_moved(std::move(small));
    ASSERT_EQ(small_moved.size(), 1u);
    EXPECT_EQ(small_moved[0], "x");
}

TEST(SmallVector, ReuseAfterClearKeepsWorking)
{
    // The engine's per-evaluation pattern: clear + refill many times.
    SmallVector<int, 4> v;
    for (int round = 0; round < 100; ++round) {
        v.clear();
        for (int i = 0; i < (round % 7) + 1; ++i) {
            v.push_back(round + i);
        }
        EXPECT_EQ(v.size(), static_cast<std::size_t>((round % 7) + 1));
        EXPECT_EQ(v.front(), round);
    }
}

TEST(FlatMatrix, AssignIndexAndRowPointers)
{
    FlatMatrix<double> m;
    EXPECT_TRUE(m.empty());
    m.assign(3, 4, 1.5);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 4; ++c) {
            EXPECT_EQ(m[r][c], 1.5);
            EXPECT_EQ(m.at(r, c), 1.5);
        }
    }
    m[1][2] = 9.0;
    EXPECT_EQ(m.at(1, 2), 9.0);
    // Rows are adjacent in one backing buffer.
    EXPECT_EQ(m[1], m[0] + 4);
    EXPECT_EQ(m.flat().size(), 12u);
}

TEST(FlatMatrix, ElementWiseEquality)
{
    FlatMatrix<int> a(2, 2, 3);
    FlatMatrix<int> b(2, 2, 3);
    EXPECT_EQ(a, b);
    b[1][1] = 4;
    EXPECT_NE(a, b);
    FlatMatrix<int> shaped(4, 1, 3);  // same flat data, other shape
    EXPECT_NE(a, shaped);
}

} // namespace
} // namespace sparseloop
