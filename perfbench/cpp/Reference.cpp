//===- perfbench/cpp/Reference.cpp - Host-side answer checks --------------===//
//
// Part of the Panthera reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Reference.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

using namespace panthera;

double perfbench::referenceKMeansCost(const rdd::SourceData &Points,
                                      uint32_t K, uint32_t Iterations) {
  std::vector<double> Centers(K);
  for (uint32_t I = 0; I != K; ++I)
    Centers[I] = 100.0 * (I + 0.5) / K;
  auto Nearest = [&](double X) {
    uint32_t Best = 0;
    for (uint32_t I = 1; I != K; ++I)
      if (std::abs(X - Centers[I]) < std::abs(X - Centers[Best]))
        Best = I;
    return Best;
  };
  for (uint32_t Iter = 0; Iter != Iterations; ++Iter) {
    std::vector<double> Sum(K, 0.0), Count(K, 0.0);
    for (const auto &Part : Points)
      for (const rdd::SourceRecord &R : Part) {
        uint32_t C = Nearest(R.Val);
        Sum[C] += R.Val;
        Count[C] += 1.0;
      }
    for (uint32_t I = 0; I != K; ++I)
      if (Count[I] > 0.0)
        Centers[I] = Sum[I] / Count[I];
  }
  double Cost = 0.0;
  for (const auto &Part : Points)
    for (const rdd::SourceRecord &R : Part) {
      double D = R.Val - Centers[Nearest(R.Val)];
      Cost += D * D;
    }
  return Cost;
}

double perfbench::referenceComponentLabelSum(const rdd::SourceData &Edges) {
  std::unordered_map<int64_t, int64_t> Parent;
  auto Find = [&](int64_t V) {
    auto [It, Inserted] = Parent.try_emplace(V, V);
    (void)Inserted;
    int64_t Root = V;
    while (Parent[Root] != Root)
      Root = Parent[Root];
    while (Parent[V] != Root) { // path compression
      int64_t Next = Parent[V];
      Parent[V] = Root;
      V = Next;
    }
    return Root;
  };
  for (const auto &Part : Edges)
    for (const rdd::SourceRecord &R : Part) {
      int64_t A = Find(R.Key), B = Find(static_cast<int64_t>(R.Val));
      if (A != B) // the smaller id stays the root, so roots are the labels
        Parent[std::max(A, B)] = std::min(A, B);
    }
  double Sum = 0.0;
  for (const auto &Entry : Parent)
    Sum += static_cast<double>(Find(Entry.first));
  return Sum;
}
