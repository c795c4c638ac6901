/**
 * @file
 * Unit tests for workload specifications (Einsum, projections).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "workload/builders.hh"
#include "workload/workload.hh"

namespace sparseloop {
namespace {

TEST(Workload, MatmulStructure)
{
    Workload w = makeMatmul(8, 16, 32);
    EXPECT_EQ(w.dimCount(), 3);
    EXPECT_EQ(w.tensorCount(), 3);
    EXPECT_EQ(w.denseComputeCount(), 8 * 16 * 32);
    EXPECT_EQ(w.outputTensor(), w.tensorIndex("Z"));
    EXPECT_EQ(w.dims()[w.dimIndex("K")].bound, 16);
}

TEST(Workload, MatmulRelevance)
{
    Workload w = makeMatmul(8, 16, 32);
    int A = w.tensorIndex("A"), B = w.tensorIndex("B"),
        Z = w.tensorIndex("Z");
    int M = w.dimIndex("M"), K = w.dimIndex("K"), N = w.dimIndex("N");
    EXPECT_TRUE(w.dimRelevant(A, M));
    EXPECT_TRUE(w.dimRelevant(A, K));
    EXPECT_FALSE(w.dimRelevant(A, N));
    EXPECT_TRUE(w.dimRelevant(B, K));
    EXPECT_TRUE(w.dimRelevant(B, N));
    EXPECT_FALSE(w.dimRelevant(B, M));
    EXPECT_TRUE(w.dimRelevant(Z, M));
    EXPECT_FALSE(w.dimRelevant(Z, K));
}

TEST(Workload, MatmulShapes)
{
    Workload w = makeMatmul(8, 16, 32);
    EXPECT_EQ(w.tensorShape(w.tensorIndex("A")), (Shape{8, 16}));
    EXPECT_EQ(w.tensorShape(w.tensorIndex("B")), (Shape{16, 32}));
    EXPECT_EQ(w.tensorShape(w.tensorIndex("Z")), (Shape{8, 32}));
    EXPECT_EQ(w.tensorVolume(w.tensorIndex("A")), 128);
}

TEST(Workload, TileExtents)
{
    Workload w = makeMatmul(8, 16, 32);
    // Tiles m=2, k=4, n=8.
    std::vector<std::int64_t> tiles{2, 4, 8};
    EXPECT_EQ(w.tensorTileExtents(w.tensorIndex("A"), tiles),
              (Shape{2, 4}));
    EXPECT_EQ(w.tensorTileExtents(w.tensorIndex("B"), tiles),
              (Shape{4, 8}));
}

TEST(Workload, ProjectPoints)
{
    Workload w = makeMatmul(4, 4, 4);
    // Iteration point (m, k, n) = (1, 2, 3).
    Point it{1, 2, 3};
    EXPECT_EQ(w.project(w.tensorIndex("A"), it), (Point{1, 2}));
    EXPECT_EQ(w.project(w.tensorIndex("B"), it), (Point{2, 3}));
    EXPECT_EQ(w.project(w.tensorIndex("Z"), it), (Point{1, 3}));
}

TEST(Workload, ConvShapesWithHalo)
{
    ConvLayerShape s;
    s.name = "conv3x3";
    s.k = 8;
    s.c = 4;
    s.p = 14;
    s.q = 14;
    s.r = 3;
    s.s = 3;
    Workload w = makeConv(s);
    EXPECT_EQ(w.denseComputeCount(), 8 * 4 * 14 * 14 * 3 * 3);
    // Input spatial extent = P + R - 1.
    Shape in = w.tensorShape(w.tensorIndex("Inputs"));
    EXPECT_EQ(in, (Shape{1, 4, 16, 16}));
    Shape wt = w.tensorShape(w.tensorIndex("Weights"));
    EXPECT_EQ(wt, (Shape{8, 4, 3, 3}));
    Shape out = w.tensorShape(w.tensorIndex("Outputs"));
    EXPECT_EQ(out, (Shape{1, 8, 14, 14}));
}

TEST(Workload, StridedConvInputExtent)
{
    ConvLayerShape s;
    s.k = 2;
    s.c = 2;
    s.p = 7;
    s.q = 7;
    s.r = 3;
    s.s = 3;
    s.stride = 2;
    Workload w = makeConv(s);
    // Input extent = (P-1)*stride + R = 6*2 + 3 = 15.
    Shape in = w.tensorShape(w.tensorIndex("Inputs"));
    EXPECT_EQ(in[2], 15);
    EXPECT_EQ(in[3], 15);
    // Projection of the last iteration point lands inside the input.
    Point it{0, 0, 0, 6, 6, 2, 2};
    Point p = w.project(w.tensorIndex("Inputs"), it);
    EXPECT_EQ(p[2], 14);
}

TEST(Workload, DepthwiseConvSharesChannelDim)
{
    ConvLayerShape s;
    s.c = 16;
    s.p = 8;
    s.q = 8;
    s.r = 3;
    s.s = 3;
    Workload w = makeDepthwiseConv(s);
    EXPECT_EQ(w.denseComputeCount(), 16 * 8 * 8 * 3 * 3);
    int C = w.dimIndex("C");
    EXPECT_TRUE(w.dimRelevant(w.tensorIndex("Inputs"), C));
    EXPECT_TRUE(w.dimRelevant(w.tensorIndex("Weights"), C));
    EXPECT_TRUE(w.dimRelevant(w.tensorIndex("Outputs"), C));
}

TEST(Workload, BindDensities)
{
    Workload w = makeMatmul(8, 8, 8);
    bindUniformDensities(w, {{"A", 0.25}, {"B", 0.5}});
    EXPECT_NEAR(w.tensor(w.tensorIndex("A")).densityValue(), 0.25, 1e-9);
    EXPECT_NEAR(w.tensor(w.tensorIndex("B")).densityValue(), 0.5, 1e-9);
    EXPECT_DOUBLE_EQ(w.tensor(w.tensorIndex("Z")).densityValue(), 1.0);
}

TEST(Workload, UnknownNamesAreFatal)
{
    Workload w = makeMatmul(4, 4, 4);
    EXPECT_THROW(w.dimIndex("X"), FatalError);
    EXPECT_THROW(w.tensorIndex("Q"), FatalError);
}

TEST(Workload, EmptyDimsOrTensorsAreFatal)
{
    // A workload with no iteration space or no operands is bad input,
    // rejected like a bad bound or projection, not an internal bug.
    DataSpace z;
    z.name = "Z";
    z.projection = {{{0, 1}}};
    z.is_output = true;
    EXPECT_THROW(Workload("no-dims", {}, {z}), FatalError);
    EXPECT_THROW(Workload("no-tensors", {{"M", 4}}, {}), FatalError);
}

TEST(Workload, ConvDensityBinding)
{
    ConvLayerShape s;
    s.k = 4;
    s.c = 4;
    s.p = 4;
    s.q = 4;
    s.weight_density = 0.5;
    s.input_density = 0.4;
    Workload w = makeConv(s);
    EXPECT_NEAR(w.tensor(w.tensorIndex("Weights")).densityValue(), 0.5,
                0.05);
    EXPECT_NEAR(w.tensor(w.tensorIndex("Inputs")).densityValue(), 0.4,
                0.05);
}

} // namespace
} // namespace sparseloop
