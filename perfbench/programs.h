// The four paper programs the benchmark sends as .mla text (FFNN step,
// block inverse, matmul chain, sparse logistic regression), at execution
// scale or at seed-drawn small sizes, plus the seed-derived inputs they run
// on.
#ifndef PERFBENCH_PROGRAMS_H_
#define PERFBENCH_PROGRAMS_H_

#include <cstdint>
#include <map>
#include <string>

#include "core/graph/graph.h"
#include "la/dense_matrix.h"
#include "la/sparse_matrix.h"

namespace perfbench {

enum class Template { kFfnn = 0, kInverse, kChain, kLogreg };
inline constexpr int kNumTemplates = 4;

struct Program {
  Template kind = Template::kFfnn;
  std::string label;   // "ffnn[2048x1024x1024]"
  std::string source;  // .mla text
};

/// The template at its execution-scale sizes (one fixed program each).
Program ExecProgram(Template t);

/// Small program of template `t` with dimensions drawn from `*state`
/// (a SplitMix64 stream), sized like examples/programs/serve_*_small.mla.
/// The label encodes every drawn dimension, so two programs with different
/// labels never share a plan-cache key.
Program SmallProgram(Template t, uint64_t* state);

/// Input data of one program, keyed by input *name* so it applies to the
/// parsed graph and to any rewritten graph alike.
struct Inputs {
  std::map<std::string, matopt::DenseMatrix> dense;
  std::map<std::string, matopt::SparseMatrix> sparse;
};

/// Deterministic inputs for every source vertex of `graph`: Gaussian
/// matrices scaled by 1/sqrt(rows) so products stay O(1), one-hot labels
/// for `L`, diagonally dominant A and D blocks for the inverse (so A and the
/// Schur complement are well conditioned), and uniformly placed non-zeros
/// for sparse formats.
Inputs MakeInputs(Template kind, const matopt::ComputeGraph& graph,
                  uint64_t seed);

/// The same inputs as dense matrices keyed by `graph`'s vertex ids, as the
/// reference interpreter takes them.
std::map<int, matopt::DenseMatrix> ReferenceInputs(
    const matopt::ComputeGraph& graph, const Inputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_PROGRAMS_H_
