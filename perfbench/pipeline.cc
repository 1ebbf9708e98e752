#include "pipeline.h"

#include <chrono>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "analysis/diagnostics.h"
#include "engine/executor.h"
#include "engine/relation.h"
#include "frontend/frontend_lint.h"
#include "serve/fingerprint.h"

namespace perfbench {

using matopt::Result;
using matopt::Status;

namespace {

void CountSearch(const matopt::PlanResult& result, PlanCounters* counters) {
  counters->states += result.states_explored;
  if (result.beam_pruned) ++counters->beam_pruned;
}

/// The body of matopt::OptimizeWithRewrites (core/rewrite/rewrite.cc) with
/// the original search, the enumeration and every candidate search as
/// spans of their own. It must choose the plan the library call chooses;
/// main.cc checks the chosen costs against the untraced run.
Result<matopt::RewrittenPlan> TracedOptimizeWithRewrites(
    const matopt::ComputeGraph& graph, const matopt::Catalog& catalog,
    const PlannerConfig& config, Tracer* tracer, PlanCounters* counters) {
  matopt::RewrittenPlan out;
  {
    ScopedSpan span(tracer, "opt.search");
    MATOPT_ASSIGN_OR_RETURN(
        out.plan, matopt::Optimize(graph, catalog, config.model,
                                   config.cluster, config.optimizer));
  }
  CountSearch(out.plan, counters);
  counters->candidates = 1;
  out.graph = graph;
  out.vertex_map.resize(graph.num_vertices());
  std::iota(out.vertex_map.begin(), out.vertex_map.end(), 0);
  out.baseline_cost = out.plan.fused_cost;
  if (!config.rewrite.enable || !matopt::RewriteEnabled()) return out;

  matopt::RewriteSearchResult search;
  {
    ScopedSpan span(tracer, "rewrite.enumerate");
    search = matopt::EnumerateRewrites(graph, config.rewrite);
  }
  out.candidates_considered = static_cast<int>(search.candidates.size());
  out.budget_hit = search.budget_hit;
  counters->candidates = out.candidates_considered;
  counters->budget_hit = search.budget_hit;
  for (size_t i = 1; i < search.candidates.size(); ++i) {
    matopt::RewriteCandidate& cand = search.candidates[i];
    Result<matopt::PlanResult> r = [&] {
      ScopedSpan span(tracer, "opt.search");
      return matopt::Optimize(cand.graph, catalog, config.model,
                              config.cluster, config.optimizer);
    }();
    if (!r.ok()) continue;
    CountSearch(r.value(), counters);
    ++counters->rewritten_costed;
    if (r.value().fused_cost < out.plan.fused_cost) {
      ++counters->rewritten_won;
      out.graph = std::move(cand.graph);
      out.plan = std::move(r).value();
      out.chain = std::move(cand.chain);
      out.vertex_map = std::move(cand.vertex_map);
      out.exact = cand.exact;
      out.rewritten = true;
    }
  }
  return out;
}

/// Cache entry for a fresh plan, filled like OptimizerService::Handle does.
std::shared_ptr<const matopt::serve::CachedPlan> MakeEntry(
    const matopt::serve::GraphKey& key, matopt::RewrittenPlan fresh) {
  auto entry = std::make_shared<matopt::serve::CachedPlan>();
  entry->key = key;
  entry->graph = std::move(fresh.graph);
  entry->plan = std::move(fresh.plan);
  entry->rewritten = fresh.rewritten;
  entry->exact = fresh.exact;
  entry->budget_hit = fresh.budget_hit;
  entry->candidates_considered = fresh.candidates_considered;
  entry->baseline_cost = fresh.baseline_cost;
  for (const matopt::RewriteStep& step : fresh.chain) {
    entry->chain.push_back(step.description);
  }
  entry->vertex_map = std::move(fresh.vertex_map);
  entry->cold_opt_seconds = entry->plan.opt_seconds;
  return entry;
}

Result<matopt::Relation> LoadInput(const matopt::Vertex& vx,
                                   const Inputs& inputs,
                                   const matopt::ClusterConfig& cluster) {
  auto dense = inputs.dense.find(vx.name);
  if (dense != inputs.dense.end()) {
    return matopt::MakeRelation(dense->second, vx.input_format, cluster);
  }
  auto sparse = inputs.sparse.find(vx.name);
  if (sparse != inputs.sparse.end()) {
    return matopt::MakeSparseRelation(sparse->second, vx.input_format,
                                      cluster);
  }
  return Status::NotFound("no benchmark input for '" + vx.name + "'");
}

}  // namespace

Status Pipeline::Serve(const Program& program, const Inputs* inputs,
                       Tracer* tracer, RequestOutcome* out) const {
  // 1. Parse + post-parse analysis.
  matopt::DiagnosticList diagnostics;
  Result<matopt::ParsedProgram> parsed = [&] {
    ScopedSpan span(tracer, "frontend.parse");
    return matopt::ParseProgramChecked(program.source, catalog_,
                                       config_.cluster, &diagnostics);
  }();
  if (!parsed.ok()) return parsed.status();
  const matopt::ComputeGraph& graph = parsed.value().graph;
  out->vertices = graph.num_vertices();

  // 2. Cache key + exact lookup.
  matopt::serve::GraphKey key;
  std::shared_ptr<const matopt::serve::CachedPlan> entry;
  {
    ScopedSpan span(tracer, "serve.lookup");
    key = matopt::serve::MakeGraphKey(graph, config_.cluster,
                                      config_.optimizer, config_.rewrite);
    entry = cache_->Lookup(key);
  }
  out->cache_hit = entry != nullptr;

  // 3. On a miss: rewrite-aware search, then insert.
  if (entry == nullptr) {
    Result<matopt::RewrittenPlan> fresh = [&] {
      ScopedSpan span(tracer, "rewrite.plan");
      if (tracer == nullptr) {
        return matopt::OptimizeWithRewrites(graph, catalog_, config_.model,
                                            config_.cluster, config_.optimizer,
                                            config_.rewrite);
      }
      return TracedOptimizeWithRewrites(graph, catalog_, config_, tracer,
                                        &out->plan);
    }();
    if (!fresh.ok()) return fresh.status();
    ScopedSpan span(tracer, "serve.insert");
    entry = MakeEntry(key, std::move(fresh).value());
    cache_->Insert(entry);
  }
  out->entry = entry;
  out->plan_cost = entry->plan.fused_cost;

  // 4. Pre-flight dry run.
  matopt::PlanExecutor executor(catalog_, config_.cluster);
  executor.set_dist_workers(workers_);
  {
    ScopedSpan span(tracer, "engine.dryrun");
    auto dry = executor.DryRun(entry->graph, entry->plan.annotation);
    if (!dry.ok()) return dry.status();
  }
  if (inputs == nullptr) return Status::OK();

  // 5. Load the benchmark's inputs into relations.
  std::unordered_map<int, matopt::Relation> relations;
  {
    ScopedSpan span(tracer, "engine.load");
    for (int v = 0; v < entry->graph.num_vertices(); ++v) {
      const matopt::Vertex& vx = entry->graph.vertex(v);
      if (vx.op != matopt::OpKind::kInput) continue;
      MATOPT_ASSIGN_OR_RETURN(relations[v],
                              LoadInput(vx, *inputs, config_.cluster));
    }
  }

  // 6. Execute at the pipeline's worker count.
  Result<matopt::ExecResult> run = [&] {
    ScopedSpan span(tracer, "engine.execute");
    return executor.Execute(entry->graph, entry->plan.annotation,
                            std::move(relations));
  }();
  if (!run.ok()) return run.status();

  // 7. Materialize every sink.
  {
    ScopedSpan span(tracer, "engine.materialize");
    for (const auto& [sink, relation] : run.value().sinks) {
      MATOPT_ASSIGN_OR_RETURN(out->sinks[sink],
                              matopt::MaterializeDense(relation));
    }
  }
  out->exec = std::move(run.value().stats);
  return Status::OK();
}

RequestOutcome Pipeline::Run(const Program& program, const Inputs* inputs,
                             Tracer* tracer) const {
  RequestOutcome out;
  const auto start = std::chrono::steady_clock::now();
  {
    ScopedSpan span(tracer, "request");
    out.status = Serve(program, inputs, tracer, &out);
  }
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

}  // namespace perfbench
