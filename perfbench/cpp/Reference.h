//===- perfbench/cpp/Reference.h - Host-side answer checks ------*- C++ -*-===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plain host computations of what the engine's jobs must return, from the
/// same generated input and with no engine code: 1-D Lloyd iterations for
/// K-Means and union-find component labels for connected components.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include "rdd/Rdd.h"

#include <cstdint>

namespace perfbench {

/// Relative tolerance for the K-Means cost: the engine sums per-center
/// partial sums in partition order, the reference in record order.
constexpr double KMeansRelTolerance = 1e-9;

/// mllib::trainKMeans's answer on \p Points (record value = coordinate):
/// centers start at 100 * (i + 0.5) / K, each of \p Iterations assigns
/// every point to its nearest center (lowest index on ties) and moves
/// each center with points to their mean; returns the final sum of
/// squared distances.
double referenceKMeansCost(const panthera::rdd::SourceData &Points,
                           uint32_t K, uint32_t Iterations);

/// Sum over every vertex named by an edge of \p Edges (records are
/// (src, dst)) of the smallest vertex id in its undirected component.
double referenceComponentLabelSum(const panthera::rdd::SourceData &Edges);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
