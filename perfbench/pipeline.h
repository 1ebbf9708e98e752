// One benchmark request: .mla text through every matopt layer, in the order
// serve::OptimizerService::Handle calls them, but with benchmark-supplied
// inputs and a configurable worker count (Handle fabricates its own inputs
// and pins the single-node path).
#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <map>
#include <memory>

#include "common/status.h"
#include "core/cost/cost_model.h"
#include "core/ops/catalog.h"
#include "core/opt/optimizer.h"
#include "core/rewrite/rewrite.h"
#include "engine/cluster.h"
#include "engine/exec_stats.h"
#include "la/dense_matrix.h"
#include "programs.h"
#include "serve/plan_cache.h"
#include "trace.h"

namespace perfbench {

/// Planning-side counters of one traced cache miss (all zero on a hit and
/// in untraced runs, where OptimizeWithRewrites runs as one call).
struct PlanCounters {
  int64_t states = 0;          // PlanResult::states_explored, summed
  int beam_pruned = 0;         // searches whose tables hit the beam cap
  int candidates = 0;          // rewrite candidates incl. the original
  bool budget_hit = false;     // EnumerateRewrites stopped at its budget
  int rewritten_costed = 0;    // rewritten candidates that planned
  int rewritten_won = 0;       // ... that beat the best plan so far
};

struct RequestOutcome {
  matopt::Status status = matopt::Status::OK();
  double seconds = 0.0;  // request latency, parse through materialize
  bool cache_hit = false;
  double plan_cost = 0.0;  // fused cost of the plan the request ran
  int vertices = 0;        // vertices of the parsed program
  std::shared_ptr<const matopt::serve::CachedPlan> entry;
  /// Materialized sinks keyed by the executed graph's vertex ids (empty
  /// when the request did not execute).
  std::map<int, matopt::DenseMatrix> sinks;
  matopt::ExecStats exec;  // stats of Execute (data mode)
  PlanCounters plan;
};

struct PlannerConfig {
  matopt::ClusterConfig cluster;
  matopt::CostModel model;
  matopt::OptimizerOptions optimizer;
  matopt::RewriteOptions rewrite;
};

/// Runs requests against one plan cache at a fixed worker count.
class Pipeline {
 public:
  Pipeline(const matopt::Catalog& catalog, const PlannerConfig& config,
           matopt::serve::PlanCache* cache, int workers)
      : catalog_(catalog), config_(config), cache_(cache), workers_(workers) {}

  /// Serves `program`. With `inputs` null the request stops after the dry
  /// run (cache warming); otherwise it loads the inputs, executes and
  /// materializes every sink. `tracer` null runs untraced.
  RequestOutcome Run(const Program& program, const Inputs* inputs,
                     Tracer* tracer) const;

 private:
  matopt::Status Serve(const Program& program, const Inputs* inputs,
                       Tracer* tracer, RequestOutcome* out) const;

  const matopt::Catalog& catalog_;
  const PlannerConfig& config_;
  matopt::serve::PlanCache* cache_;
  int workers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
