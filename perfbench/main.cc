// matopt request benchmark. A single-process client sends requests in a
// closed loop (the next request starts when the previous one completed);
// each request drives .mla text through every matopt layer (pipeline.h).
// Three workloads:
//
//   cold_plan     distinct small programs, every lookup misses: planning
//   exec_local    execution-scale programs on a warmed cache: single node
//   exec_sharded  the same programs and plans on the 4-worker runtime
//
// Usage:
//   matopt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-file <path>] [--source-sha <sha>]
//                    [--corrupt-sink]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; with --trace 0 the metrics are the end-to-end ones,
// with --trace 1 the per-layer ones. Exit status: 0 ok, 1 an output check
// failed, 2 usage or environment error, 3 set-up failed. README.md defines
// every metric.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer_pool.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/cluster.h"
#include "frontend/parser.h"
#include "fuzz/reference.h"
#include "la/simd.h"
#include "pipeline.h"
#include "programs.h"
#include "serve/plan_cache.h"
#include "serve/service.h"
#include "trace.h"

extern char** environ;

namespace perfbench {
namespace {

using matopt::DenseMatrix;
using SinkMap = std::map<int, DenseMatrix>;
using Clock = std::chrono::steady_clock;
using Metrics = std::vector<std::pair<std::string, std::string>>;

// Set-up is repeated and its median reported, so one slow repetition does
// not move setup_s.
constexpr int kSetupRepeats = 3;
// fuzz::OracleOptions::exec_rtol / exec_atol.
constexpr double kRtol = 1e-6;
constexpr double kAtol = 1e-6;
constexpr int kShardedWorkers = 4;
// The measured phase stops here whatever --seconds says, so an invocation
// always ends well inside three minutes.
constexpr double kPhaseWallCapSeconds = 90.0;

enum class Workload { kColdPlan, kExecLocal, kExecSharded };

// Order in which requests cycle through the templates. A median over a mix
// of per-program latency clusters is only steady when the 50% point falls
// inside a cluster, not in the gap between two. On every workload the block
// inverse lies in the middle of the distribution and its latency varies
// least (its small-program search cost barely depends on the drawn size),
// so the rotation sends it twice: its 40% cluster holds the median, and on
// cold_plan's ~20 requests per run also the tail.
constexpr Template kRotation[] = {Template::kFfnn, Template::kInverse,
                                  Template::kChain, Template::kInverse,
                                  Template::kLogreg};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  std::string source_sha = "unknown";
  bool corrupt_sink = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-sink") {
      args->corrupt_sink = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else if (flag == "--source-sha") {
      args->source_sha = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

/// Any MATOPT_* variable silently selects a different program (scalar
/// kernels, no rewrites, another worker count, ...), so refuse to measure
/// under one.
bool RefuseKnobs() {
  bool refused = false;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    if (std::strncmp(*env, "MATOPT_", 7) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; unset every "
                   "MATOPT_* knob\n",
                   *env);
      refused = true;
    }
  }
  return refused;
}

/// The thread pool gets half the cores, at least one. On a VM whose cores
/// other tenants share, a pool as wide as nproc waits at every ParallelFor
/// join for the thread whose core was taken: on 4 cores, one busy-looping
/// process slowed exec_local by 22% at 4 threads and two by 75%, while at 2
/// threads neither moved it by more than 6%.
int BenchThreads() {
  return std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)) / 2);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The highest whole percentile with at least ten samples beyond it
/// (nearest rank), i.e. the eleventh-largest sample; the largest sample
/// when there are ten or fewer.
struct Tail {
  double value = 0.0;
  int percentile = 100;
  int beyond = 0;
};

Tail TailOf(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const int n = static_cast<int>(values.size());
  for (int p = 99; p >= 1; --p) {
    const int rank = (p * n + 99) / 100;  // ceil(p * n / 100)
    if (n - rank >= 10) {
      tail.value = values[rank - 1];
      tail.percentile = p;
      tail.beyond = n - rank;
      return tail;
    }
  }
  tail.value = values.back();
  return tail;
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Frees every buffer cached in the shared store of matopt's BufferPool
/// (and in this thread's cache) by acquiring it and letting it go; returns
/// the bytes freed. The executor recycles every dead payload into the
/// pool, but a payload the pool did not allocate (input chunks, kernel
/// outputs, densified sparse strips) has a capacity between two size
/// classes, is filed in the lower one and never matches a request of its
/// own size again. Left alone, the store grows by hundreds of MB per second
/// of exec_local traffic (past 12 GB in 20 s), and requests slow down as it
/// fills. The benchmark therefore empties it after every request, outside
/// the request's clock, and reports what it freed as
/// common.pool_retained_mb.
int64_t DrainBufferPool() {
  matopt::BufferPool& pool = matopt::BufferPool::Default();
  int64_t freed = 0;
  // Classes 10 (kMinPoolElems) .. 26; a miss in a larger class would
  // reserve gigabytes of address space.
  for (int cls = 10; cls <= 26; ++cls) {
    const int64_t n = int64_t{1} << cls;
    for (;;) {
      const int64_t hits = pool.snapshot().hits;
      std::vector<double> buf = pool.AcquireEmpty(n);
      if (pool.snapshot().hits == hits) break;
      freed += static_cast<int64_t>(buf.capacity() * sizeof(double));
    }
    for (;;) {
      const int64_t hits = pool.snapshot().hits;
      std::vector<int64_t> buf = pool.AcquireIndexEmpty(n);
      if (pool.snapshot().hits == hits) break;
      freed += static_cast<int64_t>(buf.capacity() * sizeof(int64_t));
    }
  }
  return freed;
}

void FlipBit(SinkMap* sinks, int bit) {
  DenseMatrix& m = sinks->begin()->second;
  uint64_t word = 0;
  std::memcpy(&word, m.data(), sizeof(word));
  word ^= uint64_t{1} << bit;
  std::memcpy(m.data(), &word, sizeof(word));
}

bool Identical(const SinkMap& got, const SinkMap& want) {
  if (got.size() != want.size()) return false;
  for (const auto& [sink, matrix] : want) {
    auto it = got.find(sink);
    if (it == got.end() || it->second.rows() != matrix.rows() ||
        it->second.cols() != matrix.cols() ||
        std::memcmp(it->second.data(), matrix.data(),
                    sizeof(double) * matrix.size()) != 0) {
      return false;
    }
  }
  return true;
}

bool CloseTo(const SinkMap& got, const SinkMap& want) {
  if (got.size() != want.size()) return false;
  for (const auto& [sink, matrix] : want) {
    auto it = got.find(sink);
    if (it == got.end() ||
        !matopt::AllClose(it->second, matrix, kRtol, kAtol)) {
      return false;
    }
  }
  return true;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Metric(double value, const char* unit) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "{\"value\": %.17g, \"unit\": \"%s\"}",
                std::isfinite(value) ? value : 0.0, unit);
  return buf;
}

/// Per-layer counters summed over the requests of the traced pass.
struct LayerTotals {
  double vertices = 0.0;
  int64_t planned = 0;  // requests that ran the search (cache misses)
  PlanCounters plan;    // summed over planned requests
  int64_t budget_hits = 0;
  double stages = 0.0;
  matopt::MemoryStats memory;      // summed
  matopt::KernelCounters kernels;  // summed
  double dist_shuffled = 0.0, dist_broadcast = 0.0, dist_tuples = 0.0;
  double dist_messages = 0.0, dist_max_skew = 0.0;
  double dist_busy_max_s = 0.0, dist_busy_s = 0.0, dist_worker_slots = 0.0;
  double dist_predicted = 0.0, dist_measured = 0.0;
  int64_t dist_requests = 0;

  void Add(const RequestOutcome& out) {
    vertices += out.vertices;
    if (!out.cache_hit) {
      ++planned;
      plan.states += out.plan.states;
      plan.beam_pruned += out.plan.beam_pruned;
      plan.candidates += out.plan.candidates;
      plan.rewritten_costed += out.plan.rewritten_costed;
      plan.rewritten_won += out.plan.rewritten_won;
      if (out.plan.budget_hit) ++budget_hits;
    }
    const matopt::ExecStats& e = out.exec;
    stages += static_cast<double>(e.stages.size());
    memory.bytes_copied += e.memory.bytes_copied;
    memory.bytes_moved += e.memory.bytes_moved;
    memory.allocs_avoided += e.memory.allocs_avoided;
    memory.fused_kernels += e.memory.fused_kernels;
    memory.fused_bytes_avoided += e.memory.fused_bytes_avoided;
    memory.fused_groups += e.memory.fused_groups;
    memory.pool_hits += e.memory.pool_hits;
    memory.pool_misses += e.memory.pool_misses;
    memory.pool_bytes_recycled += e.memory.pool_bytes_recycled;
    kernels.gemm_flops += e.kernels.gemm_flops;
    kernels.gemm_seconds += e.kernels.gemm_seconds;
    kernels.gemm_calls += e.kernels.gemm_calls;
    kernels.gemm_simd_calls += e.kernels.gemm_simd_calls;
    kernels.elem_flops += e.kernels.elem_flops;
    kernels.elem_calls += e.kernels.elem_calls;
    kernels.elem_simd_calls += e.kernels.elem_simd_calls;
    const matopt::DistStats& d = e.dist;
    if (d.num_workers == 0) return;
    ++dist_requests;
    dist_shuffled += d.bytes_shuffled;
    dist_broadcast += d.bytes_broadcast;
    dist_tuples += d.tuples_routed;
    dist_messages += static_cast<double>(d.messages);
    dist_max_skew = std::max(dist_max_skew, d.max_shard_skew);
    double busy_max = 0.0;
    for (double busy : d.worker_busy_seconds) {
      dist_busy_s += busy;
      busy_max = std::max(busy_max, busy);
    }
    dist_busy_max_s += busy_max;
    dist_worker_slots += d.num_workers;
    for (const matopt::DistExchangeRecord& stage : d.stages) {
      dist_predicted +=
          stage.predicted_shuffle_bytes + stage.predicted_broadcast_bytes;
      dist_measured +=
          stage.measured_shuffle_bytes + stage.measured_broadcast_bytes;
    }
  }
};

/// The requests of one side (untraced or traced) of the measured phase.
struct Pass {
  std::vector<double> latency_s;
  std::vector<double> plan_cost;
  std::vector<Template> kind;
  int failed = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  LayerTotals layers;

  int attempted() const { return static_cast<int>(latency_s.size()); }
  double busy_seconds() const {
    double sum = 0.0;
    for (double s : latency_s) sum += s;
    return sum;
  }
  double mean_plan_cost() const {
    double sum = 0.0;
    for (double c : plan_cost) sum += c;
    return Ratio(sum, attempted());
  }
};

class Bench {
 public:
  Bench(Args args, Workload workload)
      : args_(std::move(args)),
        workload_(workload),
        config_{matopt::SimSqlProfile(4),
                matopt::CostModel::Analytic(matopt::SimSqlProfile(4)),
                {},
                {}},
        stream_state_(matopt::DeriveSeed(args_.seed, 0x5EED)) {}

  int Run();

 private:
  bool cold() const { return workload_ == Workload::kColdPlan; }
  int workers() const {
    return workload_ == Workload::kExecSharded ? kShardedWorkers : 0;
  }

  static int rotation_length() {
    return static_cast<int>(std::size(kRotation));
  }
  static Template KindAt(int i) { return kRotation[i % rotation_length()]; }
  const Program& ProgramAt(int i);
  const Inputs& InputsAt(int i);
  bool SetupCold();
  bool SetupExec();
  /// Closed loop over requests 0, 1, ... until --seconds have passed and
  /// a whole rotation of the templates is done. With `tracer`, every
  /// request is followed by a traced twin on `traced_cache`.
  void RunPhase(matopt::serve::PlanCache* cache,
                matopt::serve::PlanCache* traced_cache, Tracer* tracer);
  /// Output check of request `i`; false on a mismatch. `twin_of` is the
  /// untraced outcome a traced twin must reproduce bit for bit.
  bool CheckRequest(int i, const RequestOutcome& out,
                    const RequestOutcome* twin_of);
  void Record(const RequestOutcome& out, int i, Pass* pass);
  void AddCheck(const std::string& name, int failures) {
    checks_.emplace_back(name, failures);
  }
  std::string StampJson() const;
  void PrintEndToEnd() const;
  Metrics EndToEndMetrics() const;
  Metrics LayerMetrics(const Tracer& tracer);
  int Finish(const Metrics& metrics) const;

  Args args_;
  Workload workload_;
  matopt::Catalog catalog_;
  PlannerConfig config_;

  // exec_*: the four programs, their inputs and the checked sinks.
  // cold_plan: the request stream generated so far.
  std::vector<Program> programs_;
  std::vector<Inputs> exec_inputs_;
  std::vector<SinkMap> expected_;
  uint64_t stream_state_;
  std::set<std::string> labels_;
  Inputs scratch_inputs_;
  int scratch_index_ = -1;

  std::unique_ptr<matopt::serve::PlanCache> warm_cache_;
  std::vector<double> setup_s_;
  bool setup_checks_ok_ = true;
  int corrupt_pending_ = 0;

  Pass untraced_;
  Pass traced_;
  double peak_rss_mb_ = 0.0;
  double pool_retained_mb_ = 0.0;  // freed by DrainBufferPool, all requests
  std::vector<std::pair<std::string, int>> checks_;  // name, failures
};

const Program& Bench::ProgramAt(int i) {
  if (!cold()) return programs_[static_cast<int>(KindAt(i))];
  while (static_cast<int>(programs_.size()) <= i) {
    const Template kind = KindAt(static_cast<int>(programs_.size()));
    // Redraw repeats so every request misses; the bound only matters for
    // runs far longer than any workload's size ranges were made for.
    Program p = SmallProgram(kind, &stream_state_);
    for (int draw = 0; draw < 1000 && !labels_.insert(p.label).second;
         ++draw) {
      p = SmallProgram(kind, &stream_state_);
    }
    programs_.push_back(std::move(p));
  }
  return programs_[i];
}

const Inputs& Bench::InputsAt(int i) {
  if (!cold()) return exec_inputs_[static_cast<int>(KindAt(i))];
  if (scratch_index_ != i) {
    const Program& p = ProgramAt(i);
    auto parsed = matopt::ParseProgram(p.source);
    scratch_inputs_ =
        parsed.ok() ? MakeInputs(p.kind, parsed.value().graph,
                                 matopt::DeriveSeed(args_.seed, 1000 + i))
                    : Inputs{};
    scratch_index_ = i;
  }
  return scratch_inputs_;
}

bool Bench::SetupCold() {
  // Set-up is one full warm-up request (thread pool start, first touch of
  // the buffer pool) on a fixed program outside the measured stream, each
  // repetition on a fresh cache.
  uint64_t warm_state = 0xC01D;
  const Program warm = SmallProgram(Template::kFfnn, &warm_state);
  auto parsed = matopt::ParseProgram(warm.source);
  if (!parsed.ok()) return false;
  const Inputs inputs = MakeInputs(warm.kind, parsed.value().graph, 7);
  RequestOutcome out;
  for (int r = 0; r < kSetupRepeats; ++r) {
    matopt::serve::PlanCache cache(64, 8);
    Pipeline pipeline(catalog_, config_, &cache, workers());
    out = pipeline.Run(warm, &inputs, nullptr);
    if (!out.status.ok()) {
      std::fprintf(stderr, "set-up request failed: %s\n",
                   out.status.ToString().c_str());
      return false;
    }
    setup_s_.push_back(out.seconds);
  }
  // Self-test of the reference comparison: the warm-up sinks pass, the
  // same sinks with one flipped exponent bit do not.
  auto reference = matopt::fuzz::EvaluateReference(
      out.entry->graph, ReferenceInputs(out.entry->graph, inputs));
  if (!reference.ok()) return false;
  SinkMap flipped = out.sinks;
  FlipBit(&flipped, 62);
  setup_checks_ok_ = CloseTo(out.sinks, reference.value()) &&
                     !CloseTo(flipped, reference.value());
  return true;
}

bool Bench::SetupExec() {
  for (int t = 0; t < kNumTemplates; ++t) {
    programs_.push_back(ExecProgram(static_cast<Template>(t)));
    auto parsed = matopt::ParseProgram(programs_.back().source);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", programs_.back().label.c_str(),
                   parsed.status().ToString().c_str());
      return false;
    }
    exec_inputs_.push_back(MakeInputs(programs_.back().kind,
                                      parsed.value().graph,
                                      matopt::DeriveSeed(args_.seed, t)));
  }
  // Set-up: warm the plan cache with every program (parse, search, insert,
  // dry run), each repetition on a fresh cache.
  for (int r = 0; r < kSetupRepeats; ++r) {
    warm_cache_ = std::make_unique<matopt::serve::PlanCache>(64, 8);
    Pipeline pipeline(catalog_, config_, warm_cache_.get(), workers());
    double seconds = 0.0;
    for (const Program& p : programs_) {
      RequestOutcome out = pipeline.Run(p, nullptr, nullptr);
      if (!out.status.ok()) {
        std::fprintf(stderr, "set-up of %s failed: %s\n", p.label.c_str(),
                     out.status.ToString().c_str());
        return false;
      }
      seconds += out.seconds;
    }
    setup_s_.push_back(seconds);
  }
  // Checked execution (not part of setup_s): one single-node run of every
  // program against the reference interpreter. Its sinks are the bits
  // every measured request, local or sharded, must reproduce.
  Pipeline local(catalog_, config_, warm_cache_.get(), 0);
  for (int t = 0; t < kNumTemplates; ++t) {
    RequestOutcome out = local.Run(programs_[t], &exec_inputs_[t], nullptr);
    if (!out.status.ok()) {
      std::fprintf(stderr, "checked run of %s failed: %s\n",
                   programs_[t].label.c_str(), out.status.ToString().c_str());
      return false;
    }
    auto reference = matopt::fuzz::EvaluateReference(
        out.entry->graph, ReferenceInputs(out.entry->graph, exec_inputs_[t]));
    if (!reference.ok()) {
      std::fprintf(stderr, "reference of %s failed: %s\n",
                   programs_[t].label.c_str(),
                   reference.status().ToString().c_str());
      return false;
    }
    const bool close = CloseTo(out.sinks, reference.value());
    std::printf("checked %-26s plan_cost %.6g sim_s, reference %s, sinks",
                programs_[t].label.c_str(), out.plan_cost,
                close ? "ok" : "MISMATCH");
    for (const auto& [sink, matrix] : out.sinks) {
      std::printf(" %016llx", static_cast<unsigned long long>(
                                  matopt::serve::DenseChecksum(
                                      matrix.data(), matrix.size())));
    }
    std::printf("\n");
    if (!close) setup_checks_ok_ = false;
    expected_.push_back(std::move(out.sinks));
  }
  // Self-test of the bit-identity comparison: one flipped low mantissa
  // bit must not pass.
  SinkMap flipped = expected_[0];
  FlipBit(&flipped, 0);
  if (Identical(flipped, expected_[0])) setup_checks_ok_ = false;
  return true;
}

bool Bench::CheckRequest(int i, const RequestOutcome& out,
                         const RequestOutcome* twin_of) {
  SinkMap corrupted;
  const SinkMap* sinks = &out.sinks;
  if (corrupt_pending_ > 0 && !out.sinks.empty()) {
    --corrupt_pending_;
    corrupted = out.sinks;
    FlipBit(&corrupted, cold() ? 62 : 0);
    sinks = &corrupted;
  }
  if (!cold()) return Identical(*sinks, expected_[static_cast<int>(KindAt(i))]);
  if (twin_of != nullptr) return Identical(*sinks, twin_of->sinks);
  auto reference = matopt::fuzz::EvaluateReference(
      out.entry->graph, ReferenceInputs(out.entry->graph, InputsAt(i)));
  return reference.ok() && CloseTo(*sinks, reference.value());
}

void Bench::Record(const RequestOutcome& out, int i, Pass* pass) {
  pass->latency_s.push_back(out.seconds);
  pass->plan_cost.push_back(out.plan_cost);
  pass->kind.push_back(ProgramAt(i).kind);
  if (out.status.ok()) ++(out.cache_hit ? pass->hits : pass->misses);
}

void Bench::RunPhase(matopt::serve::PlanCache* cache,
                     matopt::serve::PlanCache* traced_cache,
                     Tracer* tracer) {
  Pipeline pipeline(catalog_, config_, cache, workers());
  Pipeline traced_pipeline(catalog_, config_, traced_cache, workers());
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if ((elapsed >= args_.seconds && i % rotation_length() == 0) ||
        elapsed >= kPhaseWallCapSeconds) {
      break;
    }
    const Program& program = ProgramAt(i);
    const Inputs& inputs = InputsAt(i);
    RequestOutcome out = pipeline.Run(program, &inputs, nullptr);
    pool_retained_mb_ += static_cast<double>(DrainBufferPool()) / 1e6;
    Record(out, i, &untraced_);
    if (!out.status.ok()) {
      std::fprintf(stderr, "request %d (%s) failed: %s\n", i,
                   program.label.c_str(), out.status.ToString().c_str());
      ++untraced_.failed;
    } else if (!CheckRequest(i, out, nullptr)) {
      std::fprintf(stderr, "request %d (%s): sink check FAILED\n", i,
                   program.label.c_str());
      ++untraced_.failed;
    }
    if (tracer != nullptr) {
      tracer->set_request(i);
      RequestOutcome twin = traced_pipeline.Run(program, &inputs, tracer);
      pool_retained_mb_ += static_cast<double>(DrainBufferPool()) / 1e6;
      Record(twin, i, &traced_);
      traced_.layers.Add(twin);
      if (!twin.status.ok() || !out.status.ok() ||
          !CheckRequest(i, twin, &out)) {
        std::fprintf(stderr, "traced request %d (%s) failed or diverged\n",
                     i, program.label.c_str());
        ++traced_.failed;
      }
    }
  }
  peak_rss_mb_ = PeakRssMb();
}

std::string Bench::StampJson() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"source_sha\": \"%s\", \"nproc\": %ld, "
      "\"threads\": %d, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"simd\": \"%s\", \"loop\": \"closed, 1 client\", "
      "\"dist_workers\": %d}",
      args_.workload.c_str(), static_cast<unsigned long long>(args_.seed),
      args_.seconds, args_.trace ? 1 : 0, args_.source_sha.c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), matopt::ThreadPool::Default().num_threads(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, matopt::SimdIsaName(),
      workers());
  return buf;
}

void Bench::PrintEndToEnd() const {
  const Pass& p = untraced_;
  const Tail tail = TailOf(p.latency_s);
  std::printf("end-to-end %s, %d requests:\n", args_.workload.c_str(),
              p.attempted());
  std::printf("  request_ms_p50   %12.4f ms\n", Median(p.latency_s) * 1e3);
  std::printf("  request_ms_tail  %12.4f ms    p%d, %d samples beyond it\n",
              tail.value * 1e3, tail.percentile, tail.beyond);
  std::printf("  requests_per_s   %12.4f 1/s\n",
              Ratio(p.attempted(), p.busy_seconds()));
  std::printf("  plan_cost_sim_s  %12.6g sim_s\n", p.mean_plan_cost());
  std::printf("  peak_rss_mb      %12.2f MB    pool retained %.1f MB per "
              "request\n",
              peak_rss_mb_,
              Ratio(pool_retained_mb_,
                    untraced_.attempted() + traced_.attempted()));
  std::printf("  error_rate       %12.4f       %d of %d\n",
              Ratio(p.failed, p.attempted()), p.failed, p.attempted());
  std::printf("  setup_s          %12.4f s     median of %d\n",
              Median(setup_s_), kSetupRepeats);
  const char* names[] = {"ffnn", "inverse", "chain", "logreg"};
  for (int t = 0; t < kNumTemplates; ++t) {
    std::vector<double> latency;
    for (size_t i = 0; i < p.latency_s.size(); ++i) {
      if (p.kind[i] == static_cast<Template>(t)) {
        latency.push_back(p.latency_s[i]);
      }
    }
    std::printf("  p50 %-8s %12.4f ms    %zu requests\n", names[t],
                Median(latency) * 1e3, latency.size());
  }
}

Metrics Bench::EndToEndMetrics() const {
  const Pass& p = untraced_;
  return {
      {"request_ms_p50", Metric(Median(p.latency_s) * 1e3, "ms")},
      {"request_ms_tail", Metric(TailOf(p.latency_s).value * 1e3, "ms")},
      {"requests_per_s", Metric(Ratio(p.attempted(), p.busy_seconds()),
                                "1/s")},
      {"peak_rss_mb", Metric(peak_rss_mb_, "MB")},
      {"setup_s", Metric(Median(setup_s_), "s")},
  };
}

Metrics Bench::LayerMetrics(const Tracer& tracer) {
  const SpanSummary spans = Summarize(tracer.spans());
  const LayerTotals& L = traced_.layers;
  const double n = std::max(1, traced_.attempted());
  auto lookup = [](const std::map<std::string, double>& m, const char* k) {
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  auto total_ms = [&](const char* name) {
    return lookup(spans.total_ns, name) / 1e6;
  };
  auto self_ms = [&](std::initializer_list<const char*> names) {
    double sum = 0.0;
    for (const char* name : names) sum += lookup(spans.self_ns, name) / 1e6;
    return sum;
  };
  auto span_count = [&](const char* name) {
    auto it = spans.count.find(name);
    return it == spans.count.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double request_ms = total_ms("request");
  const double share_den = request_ms > 0.0 ? request_ms : 1.0;

  // Workload self-checks on the traced pass.
  int cost_mismatches = 0;
  for (int i = 0; i < traced_.attempted(); ++i) {
    if (traced_.plan_cost[i] != untraced_.plan_cost[i]) ++cost_mismatches;
  }
  AddCheck("traced plan costs == untraced plan costs", cost_mismatches);
  int low_coverage = 0;
  for (double c : spans.child_coverage) low_coverage += c < 0.95 ? 1 : 0;
  AddCheck("child spans cover >= 95% of each request", low_coverage);
  if (cold()) {
    AddCheck("cold_plan: traced serve.cache_hits == 0",
             static_cast<int>(traced_.hits));
    AddCheck("cold_plan: opt.search >= 90% of the request",
             total_ms("opt.search") >= 0.9 * request_ms ? 0 : 1);
  } else {
    AddCheck(args_.workload + ": traced serve.cache_misses == 0",
             static_cast<int>(traced_.misses));
  }
  if (workload_ == Workload::kExecLocal) {
    AddCheck("exec_local: rewrite + opt < 1% of the request",
             self_ms({"rewrite.plan", "rewrite.enumerate", "opt.search"}) <
                     0.01 * request_ms
                 ? 0
                 : 1);
    std::string largest;
    double largest_ns = -1.0;
    for (const auto& [name, ns] : spans.self_ns) {
      if (ns > largest_ns) {
        largest_ns = ns;
        largest = name;
      }
    }
    AddCheck("exec_local: engine.execute is the largest span",
             largest == "engine.execute" ? 0 : 1);
  }
  const bool dist_active = L.dist_shuffled + L.dist_broadcast +
                               L.dist_tuples + L.dist_messages >
                           0.0;
  if (workload_ == Workload::kExecSharded) {
    AddCheck("exec_sharded: dist.* counters non-zero", dist_active ? 0 : 1);
  } else {
    AddCheck(args_.workload + ": dist.* counters all 0", dist_active ? 1 : 0);
  }
  int failed_checks = 0;
  for (const auto& check : checks_) failed_checks += check.second != 0;

  const double traced_p50 = Median(traced_.latency_s);
  const double untraced_p50 = Median(untraced_.latency_s);
  std::printf("traced twins: %d requests, p50 %.4f ms (untraced %.4f ms)\n",
              traced_.attempted(), traced_p50 * 1e3, untraced_p50 * 1e3);
  const double planned = std::max<double>(1.0, static_cast<double>(L.planned));
  const double min_coverage =
      spans.child_coverage.empty()
          ? 0.0
          : *std::min_element(spans.child_coverage.begin(),
                              spans.child_coverage.end());
  const double exec_wall_s = total_ms("engine.execute") / 1e3;
  const double mean_workers = Ratio(L.dist_worker_slots, L.dist_requests);
  auto per_request = [&](double v) { return v / n; };
  return {
      {"frontend.parse_ms", Metric(per_request(total_ms("frontend.parse")),
                                   "ms")},
      {"frontend.vertices", Metric(per_request(L.vertices), "count")},
      {"serve.lookup_ms",
       Metric(per_request(self_ms({"serve.lookup", "serve.insert"})), "ms")},
      {"serve.cache_hits", Metric(static_cast<double>(traced_.hits), "count")},
      {"serve.cache_misses",
       Metric(static_cast<double>(traced_.misses), "count")},
      {"serve.hit_rate",
       Metric(Ratio(traced_.hits, traced_.hits + traced_.misses), "ratio")},
      {"rewrite.enumerate_ms",
       Metric(per_request(total_ms("rewrite.enumerate")), "ms")},
      {"rewrite.candidates", Metric(L.plan.candidates / planned, "count")},
      {"rewrite.budget_hit_share",
       Metric(static_cast<double>(L.budget_hits) / planned, "ratio")},
      {"rewrite.useful_ratio",
       Metric(Ratio(L.plan.rewritten_won, L.plan.rewritten_costed), "ratio")},
      {"opt.search_ms", Metric(per_request(total_ms("opt.search")), "ms")},
      {"opt.search_ms_max",
       Metric(lookup(spans.max_ns, "opt.search") / 1e6, "ms")},
      {"opt.searches", Metric(per_request(span_count("opt.search")), "count")},
      {"opt.states",
       Metric(per_request(static_cast<double>(L.plan.states)), "count")},
      {"opt.states_per_ms",
       Metric(Ratio(static_cast<double>(L.plan.states),
                    total_ms("opt.search")),
              "1/ms")},
      {"opt.beam_pruned", Metric(per_request(L.plan.beam_pruned), "count")},
      {"engine.dryrun_ms", Metric(per_request(total_ms("engine.dryrun")),
                                  "ms")},
      {"engine.load_ms", Metric(per_request(total_ms("engine.load")), "ms")},
      {"engine.execute_ms", Metric(per_request(total_ms("engine.execute")),
                                   "ms")},
      {"engine.materialize_ms",
       Metric(per_request(total_ms("engine.materialize")), "ms")},
      {"engine.stages", Metric(per_request(L.stages), "count")},
      {"engine.copied_mb", Metric(per_request(L.memory.bytes_copied) / 1e6,
                                  "MB")},
      {"engine.moved_mb", Metric(per_request(L.memory.bytes_moved) / 1e6,
                                 "MB")},
      {"engine.allocs_avoided",
       Metric(per_request(static_cast<double>(L.memory.allocs_avoided)),
              "count")},
      {"fusion.groups",
       Metric(per_request(static_cast<double>(L.memory.fused_groups)),
              "count")},
      {"fusion.kernels",
       Metric(per_request(static_cast<double>(L.memory.fused_kernels)),
              "count")},
      {"fusion.avoided_mb",
       Metric(per_request(L.memory.fused_bytes_avoided) / 1e6, "MB")},
      {"la.gemm_busy_ms", Metric(per_request(L.kernels.gemm_seconds) * 1e3,
                                 "ms")},
      {"la.gemm_gflop", Metric(per_request(L.kernels.gemm_flops) / 1e9,
                               "GFLOP")},
      {"la.gemm_gflops_per_s",
       Metric(Ratio(L.kernels.gemm_flops / 1e9, L.kernels.gemm_seconds),
              "GFLOP/s")},
      {"la.gemm_calls",
       Metric(per_request(static_cast<double>(L.kernels.gemm_calls)),
              "count")},
      {"la.gemm_simd_share",
       Metric(Ratio(static_cast<double>(L.kernels.gemm_simd_calls),
                    static_cast<double>(L.kernels.gemm_calls)),
              "ratio")},
      {"la.elem_calls",
       Metric(per_request(static_cast<double>(L.kernels.elem_calls)),
              "count")},
      {"la.elem_gflop", Metric(per_request(L.kernels.elem_flops) / 1e9,
                               "GFLOP")},
      {"la.elem_simd_share",
       Metric(Ratio(static_cast<double>(L.kernels.elem_simd_calls),
                    static_cast<double>(L.kernels.elem_calls)),
              "ratio")},
      {"common.pool_hit_rate",
       Metric(Ratio(static_cast<double>(L.memory.pool_hits),
                    static_cast<double>(L.memory.pool_hits +
                                        L.memory.pool_misses)),
              "ratio")},
      {"common.pool_recycled_mb",
       Metric(per_request(static_cast<double>(L.memory.pool_bytes_recycled)) /
                  1e6,
              "MB")},
      {"common.pool_retained_mb",
       Metric(Ratio(pool_retained_mb_,
                    untraced_.attempted() + traced_.attempted()),
              "MB")},
      {"dist.shuffled_mb", Metric(per_request(L.dist_shuffled) / 1e6, "MB")},
      {"dist.broadcast_mb", Metric(per_request(L.dist_broadcast) / 1e6,
                                   "MB")},
      {"dist.messages", Metric(per_request(L.dist_messages), "count")},
      {"dist.tuples_routed", Metric(per_request(L.dist_tuples), "count")},
      {"dist.max_shard_skew", Metric(L.dist_max_skew, "ratio")},
      {"dist.busy_ms_max", Metric(per_request(L.dist_busy_max_s) * 1e3,
                                  "ms")},
      {"dist.idle_share",
       Metric(L.dist_requests == 0
                  ? 0.0
                  : 1.0 - Ratio(L.dist_busy_s, mean_workers * exec_wall_s),
              "ratio")},
      {"dist.bytes_measured_over_predicted",
       Metric(Ratio(L.dist_measured, L.dist_predicted), "ratio")},
      {"frontend.self_share",
       Metric(self_ms({"frontend.parse"}) / share_den, "ratio")},
      {"serve.self_share",
       Metric(self_ms({"serve.lookup", "serve.insert"}) / share_den,
              "ratio")},
      {"rewrite.self_share",
       Metric(self_ms({"rewrite.plan", "rewrite.enumerate"}) / share_den,
              "ratio")},
      {"opt.self_share", Metric(self_ms({"opt.search"}) / share_den, "ratio")},
      {"engine.self_share",
       Metric(self_ms({"engine.dryrun", "engine.load", "engine.execute",
                       "engine.materialize"}) /
                  share_den,
              "ratio")},
      {"request.self_share", Metric(self_ms({"request"}) / share_den,
                                    "ratio")},
      {"trace.overhead_share",
       Metric(Ratio(traced_p50, untraced_p50) - 1.0, "ratio")},
      {"trace.child_coverage_min", Metric(min_coverage, "ratio")},
      {"plan.cost_sim_s", Metric(untraced_.mean_plan_cost(), "sim_s")},
      {"error_rate",
       Metric(Ratio(untraced_.failed + traced_.failed,
                    untraced_.attempted() + traced_.attempted()),
              "ratio")},
      {"check.failed", Metric(failed_checks, "count")},
  };
}

int Bench::Finish(const Metrics& metrics) const {
  for (const auto& [name, failures] : checks_) {
    std::printf("check %-48s %s (%d)\n", name.c_str(),
                failures == 0 ? "ok" : "FAILED", failures);
  }
  const int attempted = untraced_.attempted() + traced_.attempted();
  const int failed = untraced_.failed + traced_.failed;
  const bool correct = failed == 0 && setup_checks_ok_;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].first + "\": " + metrics[i].second;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Bench::Run() {
  const std::string stamp = StampJson();
  std::printf("stamp %s\n", stamp.c_str());
  std::fflush(stdout);
  const auto run_start = Clock::now();
  if (!(cold() ? SetupCold() : SetupExec())) return 3;
  if (!setup_checks_ok_) {
    std::fprintf(stderr,
                 "set-up output check or comparator self-test FAILED\n");
  }
  std::printf("set-up took %.2f s of wall-clock (setup_s counts only the "
              "matopt calls)\n",
              std::chrono::duration<double>(Clock::now() - run_start).count());
  corrupt_pending_ = args_.corrupt_sink ? 1 : 0;

  // cold_plan plans into fresh caches (one per side, so a traced twin
  // misses too); exec_* serve from the warmed one.
  matopt::serve::PlanCache cold_cache(1 << 16, 8);
  matopt::serve::PlanCache twin_cache(1 << 16, 8);
  matopt::serve::PlanCache* cache = cold() ? &cold_cache : warm_cache_.get();
  const matopt::serve::PlanCacheStats before = cache->Stats();
  Tracer tracer;
  ResetPeakRss();
  RunPhase(cache, cold() ? &twin_cache : cache,
           args_.trace ? &tracer : nullptr);
  PrintEndToEnd();

  // PlanCache's own counters over the measured phase.
  const matopt::serve::PlanCacheStats after = cache->Stats();
  if (cold()) {
    AddCheck("cold_plan: serve.cache_hits == 0",
             static_cast<int>(after.hits - before.hits));
  } else {
    AddCheck(args_.workload + ": serve.cache_misses == 0",
             static_cast<int>(after.misses - before.misses));
  }
  if (!args_.trace) return Finish(EndToEndMetrics());
  if (!args_.trace_file.empty() &&
      !tracer.WriteChromeJson(args_.trace_file, stamp)) {
    std::fprintf(stderr, "cannot write %s\n", args_.trace_file.c_str());
  }
  return Finish(LayerMetrics(tracer));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Workload;
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: matopt_perfbench --workload cold_plan|exec_local|"
                 "exec_sharded --seed N --seconds S --trace 0|1 "
                 "[--trace-file PATH] [--source-sha SHA] [--corrupt-sink]\n");
    return 2;
  }
  if (perfbench::RefuseKnobs()) return 2;
  matopt::ThreadPool::SetDefaultThreads(perfbench::BenchThreads());
  Workload workload;
  if (args.workload == "cold_plan") {
    workload = Workload::kColdPlan;
  } else if (args.workload == "exec_local") {
    workload = Workload::kExecLocal;
  } else if (args.workload == "exec_sharded") {
    workload = Workload::kExecSharded;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::Bench bench(std::move(args), workload);
  return bench.Run();
}
