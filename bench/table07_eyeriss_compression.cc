/**
 * @file
 * Table 7 reproduction: Eyeriss DRAM compression rate for the AlexNet
 * CONV layers. Eyeriss encodes off-chip activations with run-length
 * coding; the compression rate grows from conv1 (dense image inputs)
 * toward conv5 as ReLU activation sparsity increases.
 *
 * Paper values: 1.2, 1.4, 1.7, 1.8/1.9, 1.9.
 *
 * Exit-code gate: the binary prints a FAIL line and exits 1 when a
 * conv2-conv5 rate leaves +-0.1 of the paper's 1.4, 1.7, 1.8 and 1.9,
 * or when the rate stops increasing from conv1 to conv5.
 */

#include <cmath>
#include <cstdio>

#include "apps/dnn_models.hh"
#include "bench/bench_util.hh"
#include "density/hypergeometric.hh"
#include "format/tensor_format.hh"

using namespace sparseloop;

int
main()
{
    bench::header("Table 7: Eyeriss DRAM compression rate (AlexNet)");
    // The chip compresses the *output* activations of each layer when
    // writing them off-chip; layer N's output sparsity is layer N+1's
    // input sparsity. conv5 outputs keep conv5-like sparsity.
    auto layers = apps::alexnetConvLayers();
    std::vector<double> out_density;
    for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
        out_density.push_back(layers[i + 1].input_density);
    }
    out_density.push_back(0.40);  // conv5 outputs

    // Eyeriss RLE: 5-bit run lengths, 16-bit data, runs of up to three
    // (run, level) pairs packed per 64-bit word; we model the
    // per-value cost directly.
    TensorFormat rle = makeRunLength(1, 5);
    std::printf("%-8s %-12s %-12s\n", "layer", "out_density",
                "compression");
    const char *paper[] = {"1.2", "1.4", "1.7", "1.8/1.9", "1.9"};
    // Gate band centers; conv1 is only checked for ordering.
    const double paper_band[] = {1.2, 1.4, 1.7, 1.8, 1.9};
    constexpr double kBand = 0.1;
    int failures = 0;
    double prev_rate = 0.0;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const auto &l = layers[i];
        std::int64_t elems = l.k * l.p * l.q;  // output activations
        HypergeometricDensity model(elems, out_density[i]);
        auto stats =
            rle.tileStats(model, rle.flattenExtents({l.k, l.p, l.q}));
        const double rate = stats.compressionRate(16);
        std::printf("%-8s %-12.2f %-12.2f (paper: %s)\n",
                    l.name.c_str(), out_density[i], rate, paper[i]);
        if (i > 0 && std::abs(rate - paper_band[i]) > kBand) {
            std::printf("FAIL: %s compression %.2f is outside "
                        "%.1f +- %.1f\n",
                        l.name.c_str(), rate, paper_band[i], kBand);
            ++failures;
        }
        if (i > 0 && rate <= prev_rate) {
            std::printf("FAIL: %s compression %.2f does not exceed "
                        "the previous layer's %.2f\n",
                        l.name.c_str(), rate, prev_rate);
            ++failures;
        }
        prev_rate = rate;
    }
    std::printf("\n(compression improves monotonically conv1 -> conv5 "
                "with activation sparsity)\n");
    return failures == 0 ? 0 : 1;
}
