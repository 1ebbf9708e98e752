#include "programs.h"

#include <cmath>
#include <cstdio>

#include "common/random.h"
#include "core/format/format.h"
#include "ml/generators.h"

namespace perfbench {

using matopt::ComputeGraph;
using matopt::DenseMatrix;

namespace {

struct FfnnDims { int64_t n, f, h, strip, tile; };
struct InverseDims { int64_t n; };
struct ChainDims { int64_t a, b, c; };
struct LogregDims {
  int64_t n, f, k, strip;
  const char* w_format;
  double sparsity;
};

std::string Format(const char* fmt, auto... args) {
  char buf[2048];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

Program Ffnn(const FfnnDims& d) {
  using L = long long;
  Program p;
  p.kind = Template::kFfnn;
  p.label = Format("ffnn[%lldx%lldx%lld]", L(d.n), L(d.f), L(d.h));
  p.source = Format(
      "input X[%lld, %lld]  format = row_strips(%lld);\n"
      "input L[%lld, 17]    format = single;\n"
      "input W1[%lld, %lld] format = tiles(%lld);\n"
      "input W2[%lld, %lld] format = tiles(%lld);\n"
      "input W3[%lld, 17]   format = single;\n"
      "input b1[1, %lld]    format = single;\n"
      "input b2[1, %lld]    format = single;\n"
      "input b3[1, 17]      format = single;\n"
      "A1 = relu(X * W1 .+ b1);\n"
      "A2 = relu(A1 * W2 .+ b2);\n"
      "Y  = softmax(A2 * W3 .+ b3);\n"
      "D3 = scale(Y - L, 0.0001);\n"
      "G2 = relu_grad(A2, D3 * W3');\n"
      "W2n = W2 - 0.05 * (A1' * G2);\n"
      "output W2n;\n",
      L(d.n), L(d.f), L(d.strip), L(d.n), L(d.f), L(d.h), L(d.tile), L(d.h),
      L(d.h), L(d.tile), L(d.h), L(d.h), L(d.h));
  return p;
}

Program Inverse(const InverseDims& d) {
  using L = long long;
  Program p;
  p.kind = Template::kInverse;
  p.label = Format("inverse[%lld]", L(d.n));
  p.source = Format(
      "input A[%lld, %lld] format = single;\n"
      "input B[%lld, %lld] format = single;\n"
      "input C[%lld, %lld] format = single;\n"
      "input D[%lld, %lld] format = single;\n"
      "Ai = inv(A);\n"
      "CA = C * Ai;\n"
      "AB = Ai * B;\n"
      "S  = D - CA * B;\n"
      "Si = inv(S);\n"
      "TL = Ai + AB * (Si * CA);\n"
      "TR = -(AB * Si);\n"
      "BL = -(Si * CA);\n"
      "output TL;\noutput TR;\noutput BL;\noutput Si;\n",
      L(d.n), L(d.n), L(d.n), L(d.n), L(d.n), L(d.n), L(d.n), L(d.n));
  return p;
}

Program Chain(const ChainDims& d) {
  using L = long long;
  Program p;
  p.kind = Template::kChain;
  p.label = Format("chain[%lldx%lldx%lld]", L(d.a), L(d.b), L(d.c));
  p.source = Format(
      "input A[%lld, %lld] format = single;\n"
      "input B[%lld, %lld] format = single;\n"
      "input C[%lld, 1]    format = single;\n"
      "input D[1, %lld]    format = single;\n"
      "input E[%lld, %lld] format = single;\n"
      "input F[%lld, %lld] format = single;\n"
      "T1 = A * B;\n"
      "T2 = C * D;\n"
      "O  = ((T1 * E) * (T1 * T2)) * (T2 * F);\n"
      "output O;\n",
      L(d.a), L(d.b), L(d.b), L(d.c), L(d.c), L(d.c), L(d.c), L(d.a), L(d.c),
      L(d.a));
  return p;
}

Program Logreg(const LogregDims& d) {
  using L = long long;
  Program p;
  p.kind = Template::kLogreg;
  p.label = Format("logreg[%lldx%lldx%lld]", L(d.n), L(d.f), L(d.k));
  p.source = Format(
      "input X[%lld, %lld] format = sp_row_strips(1000) sparsity = %g;\n"
      "input W[%lld, %lld] format = %s;\n"
      "input L[%lld, %lld] format = row_strips(%lld);\n"
      "P    = sigmoid(X * W);\n"
      "D    = P - L;\n"
      "G    = X' * D;\n"
      "Wnew = W - 0.05 * G;\n"
      "output Wnew;\n",
      L(d.n), L(d.f), d.sparsity, L(d.f), L(d.k), d.w_format, L(d.n), L(d.k),
      L(d.strip));
  return p;
}

/// Uniform draw from {lo, lo + step, ..., hi}.
int64_t Draw(uint64_t* state, int64_t lo, int64_t hi, int64_t step) {
  *state = matopt::SplitMix64(*state);
  int64_t options = (hi - lo) / step + 1;
  return lo + static_cast<int64_t>(*state % static_cast<uint64_t>(options)) *
                  step;
}

}  // namespace

Program ExecProgram(Template t) {
  switch (t) {
    case Template::kFfnn: return Ffnn({2048, 1024, 1024, 100, 100});
    case Template::kInverse: return Inverse({512});
    case Template::kChain: return Chain({1000, 1500, 2500});
    case Template::kLogreg:
      return Logreg({2000, 3000, 600, 1000, "tiles(1000, 100)", 0.006});
  }
  return {};
}

Program SmallProgram(Template t, uint64_t* state) {
  // Narrow ranges around the serve_*_small.mla sizes: wide enough that a
  // run never repeats a program, narrow enough that the search cost (which
  // depends on which formats the sizes make feasible) barely moves.
  switch (t) {
    case Template::kFfnn:
      return Ffnn({Draw(state, 240, 272, 8), Draw(state, 480, 544, 16),
                   Draw(state, 352, 416, 16), 100, 100});
    case Template::kInverse: return Inverse({Draw(state, 100, 156, 1)});
    case Template::kChain:
      return Chain({Draw(state, 180, 220, 10), Draw(state, 280, 320, 10),
                    Draw(state, 460, 540, 20)});
    case Template::kLogreg:
      return Logreg({Draw(state, 224, 288, 16), Draw(state, 2800, 3200, 100),
                     Draw(state, 48, 80, 8), 100, "tiles(100)", 0.01});
  }
  return {};
}

Inputs MakeInputs(Template kind, const ComputeGraph& graph, uint64_t seed) {
  Inputs inputs;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    const matopt::Vertex& vx = graph.vertex(v);
    if (vx.op != matopt::OpKind::kInput) continue;
    uint64_t name_hash = 0xCBF29CE484222325ull;  // FNV-1a: stable everywhere
    for (char c : vx.name) {
      name_hash = (name_hash ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
    }
    const uint64_t input_seed = matopt::DeriveSeed(seed, name_hash) | 1;
    const int64_t rows = vx.type.rows();
    const int64_t cols = vx.type.cols();
    if (matopt::BuiltinFormats()[vx.input_format].sparse()) {
      inputs.sparse.emplace(
          vx.name, matopt::RandomSparse(rows, cols,
                                        vx.sparsity * static_cast<double>(cols),
                                        input_seed));
      continue;
    }
    if (vx.name == "L" && kind != Template::kChain) {
      inputs.dense.emplace(vx.name,
                           matopt::OneHotLabels(rows, cols, input_seed));
      continue;
    }
    DenseMatrix m = matopt::GaussianMatrix(rows, cols, input_seed);
    const double scale = 1.0 / std::sqrt(static_cast<double>(rows));
    for (int64_t i = 0; i < m.size(); ++i) m.data()[i] *= scale;
    if (kind == Template::kInverse && (vx.name == "A" || vx.name == "D")) {
      const double shift = vx.name == "A" ? 4.0 : 8.0;
      for (int64_t i = 0; i < rows && i < cols; ++i) m(i, i) += shift;
    }
    inputs.dense.emplace(vx.name, std::move(m));
  }
  return inputs;
}

std::map<int, DenseMatrix> ReferenceInputs(const ComputeGraph& graph,
                                           const Inputs& inputs) {
  std::map<int, DenseMatrix> out;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    const matopt::Vertex& vx = graph.vertex(v);
    if (vx.op != matopt::OpKind::kInput) continue;
    auto dense = inputs.dense.find(vx.name);
    if (dense != inputs.dense.end()) {
      out.emplace(v, dense->second);
    } else {
      out.emplace(v, inputs.sparse.at(vx.name).ToDense());
    }
  }
  return out;
}

}  // namespace perfbench
