// The repository benchmark's binary. It runs one named workload in a closed
// loop (one client: the next iteration starts when the previous one ends)
// for a wall-clock budget, checks every result, and prints one JSON object
// of raw per-iteration samples on stdout; perfbench/run.py reduces them to
// medians and compares digests against perfbench/expected.json.
//
// Everything is timed from outside the simulator, around calls into each
// module's public functions (Simulator construction and run, ckpt
// fast-forward and checkpoint write/restore, SweepEngine::run, the campaign
// Broker/Worker), and counts come from the public statistics tree and
// Scheduler::events_fired(). Nothing in src/ is instrumented.
//
// With --trace 1, iterations alternate untraced and traced. A traced
// iteration records spans (name, start, end, parent, iteration) in memory,
// slices the detailed run into about 100 Simulator::run windows carrying
// counter deltas, and is followed by two layer probes: a functional-ISS
// replay of the same program and a fast-forward + checkpoint round trip.
// Spans are written as Chrome trace-event JSON at exit (--trace-out).
//
// Usage:
//   coyote_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--trace-out FILE] [--size N]
// The coyote_bench_count build (counting operator new) runs exactly one
// untimed iteration and reports allocations; it is never timed.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/broker.h"
#include "campaign/worker.h"
#include "ckpt/checkpoint.h"
#include "ckpt/fastforward.h"
#include "core/config_io.h"
#include "core/simulator.h"
#include "fault/differential.h"
#include "kernels/kernels.h"
#include "loader/elf.h"
#include "loader/workload.h"
#include "sweep/sweep.h"

#ifndef COYOTE_BENCH_COUNT_ALLOCS
#define COYOTE_BENCH_COUNT_ALLOCS 0
#endif

#if COYOTE_BENCH_COUNT_ALLOCS
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Counting replacements for the global allocation functions. The array
// forms forward to these by default, so these count every allocation.
// Out of line, so the compiler does not pair an inlined free() with new.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace coyote::perfbench {
namespace {

constexpr bool kCountBuild = COYOTE_BENCH_COUNT_ALLOCS != 0;

std::uint64_t allocations() {
#if COYOTE_BENCH_COUNT_ALLOCS
  return g_allocations.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ------------------------------------------------------------ tracing --

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int iteration = 0;
  int tid = 0;
  std::vector<std::pair<std::string, double>> args;
};

/// In-memory span recorder for the main thread. Disabled, begin()
/// returns -1 and records nothing.
class Tracer {
 public:
  bool enabled = false;
  int iteration = 0;
  std::vector<Span> spans;

  int begin(std::string name) {
    if (!enabled) return -1;
    Span span;
    span.name = std::move(name);
    span.start = now_s();
    span.parent = current();
    span.iteration = iteration;
    spans.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans[id].end = now_s();
    open_.pop_back();
  }
  int current() const { return open_.empty() ? -1 : open_.back(); }

 private:
  std::vector<int> open_;
};

/// Times one phase; also a span when tracing is on.
class Phase {
 public:
  Phase(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))), start_(now_s()) {}
  ~Phase() { stop(); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  double stop() {
    if (!stopped_) {
      elapsed_ = now_s() - start_;
      tracer_.end(id_);
      stopped_ = true;
    }
    return elapsed_;
  }
  void arg(const std::string& key, double value) {
    if (id_ >= 0) tracer_.spans[id_].args.emplace_back(key, value);
  }

 private:
  Tracer& tracer_;
  int id_;
  double start_;
  double elapsed_ = 0.0;
  bool stopped_ = false;
};

// ------------------------------------------------------------ results --

struct Results {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> counts;
  std::map<std::string, std::string> digests;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void sample(const std::string& name, double value) {
    samples[name].push_back(value);
  }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 32) errors.push_back(what);
  }
  /// Records each digest the first time it is seen and checks every later
  /// iteration (traced or not) reproduces it exactly.
  void check_digests(const std::map<std::string, std::string>& got) {
    for (const auto& [key, value] : got) {
      const auto [it, inserted] = digests.emplace(key, value);
      if (inserted) continue;
      check(it->second == value, "digest " + key +
                                     " changed between iterations: " +
                                     it->second + " vs " + value);
    }
  }
};

std::string hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t fnv(const std::string& text) {
  return loader::fnv1a64(reinterpret_cast<const std::uint8_t*>(text.data()),
                         text.size());
}

/// FNV-1a of the JSON statistics report with the host-side dbb_* counters
/// removed (the bench/strip_host_fields.py rule): every simulated counter
/// of every unit, and nothing that may differ between two correct runs.
std::string stats_digest(const std::string& report) {
  static const std::regex kDbb(R"(, "dbb_[a-z_]+": [^,}]+)");
  return hex(fnv(std::regex_replace(report, kDbb, "")));
}

/// The same digest without the per-core l1i_accesses and raw_stall_cycles
/// counters. Slicing a run into Simulator::run(W) windows changes those
/// two on every workload here, while simulated cycles, instructions,
/// architectural state and every other counter stay identical; traced
/// iterations are checked on this digest.
std::string sliceable_stats_digest(const std::string& report) {
  static const std::regex kSliced(
      R"re(, "(dbb_[a-z_]+|l1i_accesses|raw_stall_cycles)": [^,}]+)re");
  return hex(fnv(std::regex_replace(report, kSliced, "")));
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ----------------------------------------------------------- workloads --

/// A detailed-simulation workload: a menu kernel at a fixed size on a
/// machine given as dotted config keys.
struct Detailed {
  std::string kernel;
  std::uint64_t size = 0;
  simfw::ConfigMap config;
};

simfw::ConfigMap config_map(
    std::initializer_list<std::pair<const char*, const char*>> keys) {
  simfw::ConfigMap map;
  for (const auto& [key, value] : keys) map.set(key, value);
  return map;
}

// Sizes were picked so one iteration takes about 1-2 s on a 4-core x86
// host (Release build) and each workload stresses different layers; see
// perfbench/README.md for the reasons. matmul_1c and spmv_64c are the
// Figure-3 inputs at 1 and 64 cores.
Detailed detailed_workload(const std::string& name) {
  if (name == "matmul_1c") {
    return {"matmul_scalar", 128, config_map({{"topo.cores", "1"}})};
  }
  if (name == "spmv_64c") {
    return {"spmv_scalar", 65536, config_map({{"topo.cores", "64"}})};
  }
  if (name == "mesi_mesh_16c") {
    return {"histogram", std::uint64_t{1} << 18,
            config_map({{"topo.cores", "16"},
                        {"noc.model", "mesh"},
                        {"topo.mesh", "4x4"},
                        {"l2.coherence", "mesi"}})};
  }
  if (name == "sampling") {
    return {"spmv_scalar", 65536, config_map({{"topo.cores", "16"}})};
  }
  if (name == "campaign") {  // the layer probe: grid point 0
    return {"spmv_scalar", 1024,
            config_map({{"topo.cores", "8"},
                        {"l2.size_kb", "128"},
                        {"l2.banks_per_tile", "1"}})};
  }
  throw ConfigError("unknown workload '" + name + "'");
}

/// Per-core fast-forward budget of the sampling workload: about 80% of
/// each core's ~762 k instructions, so the detailed ROI is the last 20%.
constexpr std::uint64_t kSamplingFfwdPerCore = 600'000;

/// The campaign grid: 2^7 = 128 points of spmv_scalar size 1024 on 8 cores.
sweep::SweepSpec campaign_spec(std::uint64_t seed) {
  sweep::SweepSpec spec;
  spec.kernel = "spmv_scalar";
  spec.size = 1024;
  spec.seed = seed;
  spec.base.set("topo.cores", "8");
  spec.axes = {{"l2.size_kb", {"128", "256"}},
               {"l2.banks_per_tile", {"1", "2"}},
               {"l2.mapping", {"set-interleave", "page-to-bank"}},
               {"noc.model", {"crossbar", "mesh"}},
               {"l2.coherence", {"none", "mesi"}},
               {"l2.prefetch", {"none", "next-line"}},
               {"mc.model", {"fixed", "dram"}}};
  return spec;
}

core::SimConfig machine(const Detailed& w,
                        std::initializer_list<std::pair<const char*, std::string>>
                            extra = {}) {
  simfw::ConfigMap map = w.config;
  for (const auto& [key, value] : extra) map.set(key, value);
  return core::config_from_map(map);
}

bool close_to(const std::vector<double>& want, const std::vector<double>& got) {
  if (want.size() != got.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::abs(want[i] - got[i]) > 1e-12 * std::max(1.0, std::abs(want[i]))) {
      return false;
    }
  }
  return true;
}

/// Generated inputs of one iteration: the program plus how to install the
/// data and how to check the kernel's result against its host reference.
struct Inputs {
  kernels::Program program;
  std::function<void(iss::SparseMemory&)> install;
  std::function<bool(const iss::SparseMemory&)> verify;
};

// Matrix seed S and vector seed S+1, as in the Figure-3 benchmark.
Inputs generate(const Detailed& w, std::uint64_t seed, std::uint32_t cores) {
  Inputs in;
  if (w.kernel == "matmul_scalar") {
    auto data = std::make_shared<kernels::MatmulWorkload>(
        kernels::MatmulWorkload::generate(w.size, seed));
    in.program = kernels::build_matmul_scalar(*data, cores);
    in.install = [data](iss::SparseMemory& m) { data->install(m); };
    in.verify = [data](const iss::SparseMemory& m) {
      return close_to(data->reference(), data->result(m));
    };
  } else if (w.kernel == "spmv_scalar") {
    auto data = std::make_shared<kernels::SpmvWorkload>(
        kernels::SpmvWorkload::generate(
            kernels::CsrMatrix::random(w.size, w.size, 16, seed), seed + 1));
    in.program = kernels::build_spmv_scalar(*data, cores);
    in.install = [data](iss::SparseMemory& m) { data->install(m); };
    in.verify = [data](const iss::SparseMemory& m) {
      return close_to(data->reference(), data->result(m));
    };
  } else {
    auto data = std::make_shared<kernels::HistogramWorkload>(
        kernels::HistogramWorkload::generate(w.size, 1024, 0.0, seed));
    in.program = kernels::build_histogram_atomic(*data, cores);
    in.install = [data](iss::SparseMemory& m) { data->install(m); };
    in.verify = [data](const iss::SparseMemory& m) {
      return data->reference() == data->result(m);
    };
  }
  return in;
}

// ------------------------------------------------------------- context --

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 15.0;
  bool trace = false;
  std::string trace_out;
  std::uint64_t size = 0;  ///< overrides the detailed workload's size
};

struct Ctx {
  Args args;
  Tracer tracer;
  Results results;
  /// Simulated cycles of one detailed run, learned in the warm-up
  /// iteration; traced runs use windows of a hundredth of it.
  Cycle run_cycles = 0;
  std::uint64_t run_instructions = 0;
  std::uint32_t jobs = 1;
};

/// A machine that is set up and ready to run, with its set-up timings.
struct Machine {
  Inputs inputs;
  std::unique_ptr<core::Simulator> sim;
  double generate_s = 0.0;
  double construct_s = 0.0;
  double load_s = 0.0;
  double setup_s() const { return generate_s + construct_s + load_s; }
};

Machine set_up(Ctx& ctx, const Detailed& w, const core::SimConfig& config) {
  Machine m;
  {
    Phase phase(ctx.tracer, "kernels.generate");
    m.inputs = generate(w, ctx.args.seed, config.num_cores);
    m.generate_s = phase.stop();
  }
  {
    Phase phase(ctx.tracer, "core.construct");
    m.sim = std::make_unique<core::Simulator>(config);
    m.construct_s = phase.stop();
  }
  {
    Phase phase(ctx.tracer, "kernels.load");
    m.inputs.install(m.sim->memory());
    m.sim->load_program(m.inputs.program.base, m.inputs.program.words,
                        m.inputs.program.entry);
    m.load_s = phase.stop();
  }
  return m;
}

struct RunTotals {
  double run_s = 0.0;  ///< host seconds inside Simulator::run
  std::uint64_t instructions = 0;
  core::RunResult last;
  std::vector<double> window_ns_per_instr;
};

std::uint64_t sum_l1d_misses(core::Simulator& sim) {
  std::uint64_t total = 0;
  for (CoreId id = 0; id < sim.num_cores(); ++id) {
    total += sim.core(id).counters().l1d_misses;
  }
  return total;
}

std::uint64_t sum_l2_accesses(core::Simulator& sim) {
  std::uint64_t total = 0;
  for (BankId bank = 0; bank < sim.num_l2_banks(); ++bank) {
    total += sim.l2_bank(bank).stats().find_counter("accesses").get();
  }
  return total;
}

/// The detailed run: one Simulator::run call, or — traced — about 100
/// run(W) windows, each a span carrying counter deltas. Every traced
/// iteration checks the sliced run against the untraced digests (see
/// sliceable_stats_digest for the two counters slicing moves).
RunTotals detailed_run(Ctx& ctx, core::Simulator& sim, bool traced) {
  Phase phase(ctx.tracer, "core.run");
  RunTotals totals;
  if (!traced) {
    totals.last = sim.run();
    totals.run_s = totals.last.wall_seconds;
    totals.instructions = totals.last.instructions;
    return totals;
  }
  const Cycle window = std::max<Cycle>(1, ctx.run_cycles / 100);
  const simfw::Counter& noc_messages =
      sim.noc().stats().find_counter("messages");
  for (std::size_t n = 0; n < 100'000; ++n) {
    Phase span(ctx.tracer, "core.run.window");
    const std::uint64_t events0 = sim.scheduler().events_fired();
    const std::uint64_t l1d0 = sum_l1d_misses(sim);
    const std::uint64_t l20 = sum_l2_accesses(sim);
    const std::uint64_t noc0 = noc_messages.get();
    totals.last = sim.run(window);
    span.stop();
    totals.run_s += totals.last.wall_seconds;
    totals.instructions += totals.last.instructions;
    span.arg("instructions", static_cast<double>(totals.last.instructions));
    span.arg("events_fired",
             static_cast<double>(sim.scheduler().events_fired() - events0));
    span.arg("l1d_misses", static_cast<double>(sum_l1d_misses(sim) - l1d0));
    span.arg("l2_accesses", static_cast<double>(sum_l2_accesses(sim) - l20));
    span.arg("noc_messages", static_cast<double>(noc_messages.get() - noc0));
    if (totals.last.instructions > 0) {
      totals.window_ns_per_instr.push_back(
          totals.last.wall_seconds * 1e9 /
          static_cast<double>(totals.last.instructions));
    }
    if (totals.last.all_exited) break;
  }
  return totals;
}

/// Correctness of one finished detailed machine: every core exited with
/// status 0, the kernel's result equals its host reference, and the
/// architectural and statistics digests repeat across iterations.
void verify(Ctx& ctx, Machine& m, const RunTotals& run, bool traced) {
  Phase phase(ctx.tracer, "bench.verify");
  Results& r = ctx.results;
  r.check(run.last.all_exited, "a core did not exit");
  bool clean = true;
  for (const std::int64_t code : run.last.exit_codes) clean &= code == 0;
  r.check(clean, "a core exited with a non-zero status");
  r.check(m.inputs.verify(m.sim->memory()),
          "kernel result differs from the host reference");
  const simfw::StatisticSet& orch = m.sim->root().find("orchestrator")->stats();
  const std::string report = m.sim->report(simfw::ReportFormat::kJson);
  std::map<std::string, std::string> digests = {
      {"arch", hex(fault::end_state_digest(*m.sim))},
      {"stats_sliceable", sliceable_stats_digest(report)},
      {"sim_cycles", std::to_string(orch.find_counter("cycles").get())},
      {"sim_instr", std::to_string(orch.find_counter("instructions").get())},
  };
  if (!traced) digests["stats"] = stats_digest(report);
  r.check_digests(digests);
}

double stat_sum(const core::Simulator& sim, const std::string& unit_prefix,
                const std::string& name) {
  double total = 0.0;
  sim.root().for_each([&](const simfw::Unit& unit) {
    if (unit.name().rfind(unit_prefix, 0) != 0) return;
    for (const auto& counter : unit.stats().counters()) {
      if (counter->name() == name) total += static_cast<double>(counter->get());
    }
    for (const auto& stat : unit.stats().statistics()) {
      if (stat->name() == name) total += stat->evaluate();
    }
  });
  return total;
}

/// Simulated per-layer counts of a finished machine (plus the ISS's
/// decoded-block cache counters, which are host-side but deterministic).
void record_layer_counts(Ctx& ctx, core::Simulator& sim,
                         const RunTotals& run) {
  auto& c = ctx.results.counts;
  const double hits = stat_sum(sim, "core", "dbb_hits");
  const double misses = stat_sum(sim, "core", "dbb_misses");
  c["iss.dbb_hit_ratio"] = ratio(hits, hits + misses);
  c["iss.dbb_misses"] = misses;
  c["iss.dbb_invalidations"] = stat_sum(sim, "core", "dbb_invalidations");
  c["iss.l1d_accesses"] = stat_sum(sim, "core", "l1d_accesses");
  c["iss.l1d_misses"] = stat_sum(sim, "core", "l1d_misses");
  c["iss.raw_stall_cycles"] = stat_sum(sim, "core", "raw_stall_cycles");
  c["iss.ifetch_stall_cycles"] = stat_sum(sim, "core", "ifetch_stall_cycles");
  const double instructions = static_cast<double>(run.instructions);
  const double cycles = stat_sum(sim, "orchestrator", "cycles");
  const double events = static_cast<double>(sim.scheduler().events_fired());
  c["simfw.events_fired"] = events;
  c["simfw.events_per_instr"] = ratio(events, instructions);
  c["core.sim_cycles"] = cycles;
  c["core.instructions"] = instructions;
  c["core.ipc"] = ratio(instructions, cycles);
  c["core.l1_miss_requests"] = stat_sum(sim, "orchestrator", "l1_miss_requests");
  c["core.fills"] = stat_sum(sim, "orchestrator", "fills");
  c["core.coh_probes_delivered"] =
      stat_sum(sim, "orchestrator", "coh_probes_delivered");
  const double l2_accesses = stat_sum(sim, "l2bank", "accesses");
  c["memhier.l2_accesses"] = l2_accesses;
  c["memhier.l2_hit_ratio"] =
      ratio(stat_sum(sim, "l2bank", "hits"), l2_accesses);
  c["memhier.l2_mshr_stalls"] = stat_sum(sim, "l2bank", "mshr_stalls");
  c["memhier.mc_reads"] = stat_sum(sim, "mc", "reads");
  c["memhier.mc_queue_delay_cycles"] =
      stat_sum(sim, "mc", "queue_delay_cycles");
  c["memhier.coh_invalidations"] = stat_sum(sim, "l2bank", "coh_invalidations");
  c["memhier.coh_downgrades"] = stat_sum(sim, "l2bank", "coh_downgrades");
  c["memhier.coh_serialized"] = stat_sum(sim, "l2bank", "coh_serialized");
  c["memhier.noc_messages"] = stat_sum(sim, "noc", "messages");
  c["memhier.noc_hops"] = stat_sum(sim, "noc", "hops");
  c["memhier.mesh_flits"] = stat_sum(sim, "noc", "flits");
  c["memhier.mesh_wait_cycles"] = stat_sum(sim, "noc", "wait_cycles");
  c["memhier.mesh_peak_queue_flits"] = stat_sum(sim, "noc", "peak_queue_flits");
}

// ----------------------------------------------------------- iterations --

/// What one iteration reports; the caller decides which samples to keep.
struct Iteration {
  double wall_s = 0.0;
  std::vector<double> setup_s;  ///< one per machine set up
  double host_mips = 0.0;
  /// Workload-specific end-to-end samples (checkpoint legs, passes/s).
  std::map<std::string, std::vector<double>> extra;
  std::uint64_t allocations = 0;
  std::uint64_t instructions = 0;
};

void record_setup(Ctx& ctx, const Machine& m) {
  ctx.results.sample("kernels.generate_s", m.generate_s);
  ctx.results.sample("core.construct_s", m.construct_s);
  ctx.results.sample("kernels.load_s", m.load_s);
}

void record_run(Ctx& ctx, const RunTotals& run) {
  ctx.results.sample("core.run_s", run.run_s);
  ctx.results.sample("core.host_ns_per_instr",
                     ratio(run.run_s * 1e9, static_cast<double>(run.instructions)));
  ctx.results.sample("core.window_ns_per_instr_p50",
                     percentile(run.window_ns_per_instr, 0.5));
  ctx.results.sample("core.window_ns_per_instr_p90",
                     percentile(run.window_ns_per_instr, 0.9));
}

/// Bookkeeping shared by the detailed and sampling iterations.
void finish_detailed(Ctx& ctx, const Machine& m, const RunTotals& run,
                     bool traced, Iteration& it) {
  it.setup_s = {m.setup_s()};
  it.instructions = run.instructions;
  it.host_mips = ratio(static_cast<double>(run.instructions), run.run_s * 1e6);
  ctx.run_cycles = m.sim->scheduler().now();
  ctx.run_instructions = run.instructions;
  record_layer_counts(ctx, *m.sim, run);
  if (traced) {
    record_setup(ctx, m);
    record_run(ctx, run);
  }
}

/// matmul_1c, spmv_64c, mesi_mesh_16c, and the campaign's layer probe.
Iteration detailed_iteration(Ctx& ctx, const Detailed& w, bool traced) {
  Iteration it;
  const std::uint64_t allocs0 = allocations();
  RunTotals run;
  Machine m;
  {
    Phase whole(ctx.tracer, "iteration");
    m = set_up(ctx, w, machine(w));
    run = detailed_run(ctx, *m.sim, traced);
    it.wall_s = whole.stop();
  }
  it.allocations = allocations() - allocs0;
  verify(ctx, m, run, traced);
  finish_detailed(ctx, m, run, traced, it);
  return it;
}

/// Fast-forward, then a checkpoint written to and restored from memory.
struct CkptLeg {
  std::unique_ptr<core::Simulator> restored;
  double ffwd_s = 0.0;
  double save_s = 0.0;
  double restore_s = 0.0;
  std::uint64_t ffwd_instructions = 0;
  std::uint64_t bytes = 0;
};

/// The source machine is destroyed before the restore, as when a saved
/// checkpoint is resumed later. `round_trip` additionally checks the
/// restored architectural state equals the saved one (untimed).
CkptLeg ffwd_and_checkpoint(Ctx& ctx, Machine& m, const std::string& label,
                            bool round_trip) {
  CkptLeg leg;
  {
    Phase phase(ctx.tracer, "ckpt.ffwd");
    leg.ffwd_instructions = ckpt::fast_forward(*m.sim).instructions;
    leg.ffwd_s = phase.stop();
  }
  std::stringstream buffer;
  {
    Phase phase(ctx.tracer, "ckpt.save");
    ckpt::write_checkpoint(*m.sim, label, buffer);
    leg.save_s = phase.stop();
  }
  leg.bytes = static_cast<std::uint64_t>(buffer.tellp());
  const std::uint64_t saved = round_trip ? fault::end_state_digest(*m.sim) : 0;
  m.sim.reset();
  {
    Phase phase(ctx.tracer, "ckpt.restore");
    leg.restored = ckpt::restore_checkpoint(buffer);
    leg.restore_s = phase.stop();
  }
  if (round_trip) {
    ctx.results.check(fault::end_state_digest(*leg.restored) == saved,
                      "checkpoint round trip changed the architectural state");
  }
  return leg;
}

void record_ckpt(Ctx& ctx, const CkptLeg& leg) {
  ctx.results.sample("ckpt.ffwd_s", leg.ffwd_s);
  ctx.results.sample("ckpt.save_s", leg.save_s);
  ctx.results.sample("ckpt.restore_s", leg.restore_s);
  ctx.results.sample("ckpt.save_mb_s",
                     ratio(static_cast<double>(leg.bytes), leg.save_s * 1e6));
  ctx.results.counts["ckpt.bytes"] = static_cast<double>(leg.bytes);
  ctx.results.counts["ckpt.ffwd_instructions"] =
      static_cast<double>(leg.ffwd_instructions);
}

std::string label(const Detailed& w, std::uint64_t seed) {
  return w.kernel + " size=" + std::to_string(w.size) +
         " seed=" + std::to_string(seed);
}

/// The sampling workload: fast-forward (warm-up on) most of the program,
/// checkpoint to an in-memory stream, restore, run the rest in detail.
Iteration sampling_iteration(Ctx& ctx, const Detailed& w, bool traced) {
  Iteration it;
  const std::uint64_t allocs0 = allocations();
  const core::SimConfig config =
      machine(w, {{"ckpt.ffwd_instructions", std::to_string(kSamplingFfwdPerCore)},
                  {"ckpt.warmup", "true"},
                  {"ckpt.stop_at_roi", "false"}});
  Machine m;
  CkptLeg leg;
  RunTotals run;
  {
    Phase whole(ctx.tracer, "iteration");
    m = set_up(ctx, w, config);
    leg = ffwd_and_checkpoint(ctx, m, label(w, ctx.args.seed), false);
    m.sim = std::move(leg.restored);
    run = detailed_run(ctx, *m.sim, traced);
    it.wall_s = whole.stop();
  }
  it.allocations = allocations() - allocs0;
  verify(ctx, m, run, traced);
  finish_detailed(ctx, m, run, traced, it);
  it.extra["ffwd_mips"] = {
      ratio(static_cast<double>(leg.ffwd_instructions), leg.ffwd_s * 1e6)};
  it.extra["ckpt_save_s"] = {leg.save_s};
  it.extra["ckpt_restore_s"] = {leg.restore_s};
  if (traced) record_ckpt(ctx, leg);
  return it;
}

/// Layer probe: the same program through ckpt::fast_forward with warm-up
/// off and an unbounded budget — the functional ISS alone.
void probe_functional(Ctx& ctx, const Detailed& w) {
  const core::SimConfig config =
      machine(w, {{"ckpt.ffwd_instructions", std::to_string(~std::uint64_t{0})},
                  {"ckpt.warmup", "false"},
                  {"ckpt.stop_at_roi", "false"}});
  Phase probe(ctx.tracer, "probe.functional");
  Machine m = set_up(ctx, w, config);
  Phase phase(ctx.tracer, "iss.functional_replay");
  const ckpt::FfwdResult result = ckpt::fast_forward(*m.sim);
  const double seconds = phase.stop();
  ctx.results.check(result.all_exited && m.inputs.verify(m.sim->memory()),
                    "functional replay did not reproduce the kernel result");
  const double ns = ratio(seconds * 1e9, static_cast<double>(result.instructions));
  ctx.results.sample("iss.functional_ns_per_instr", ns);
  const std::vector<double>& host = ctx.results.samples["core.host_ns_per_instr"];
  if (!host.empty()) ctx.results.sample("core.timing_ns_per_instr", host.back() - ns);
}

/// Layer probe for workloads that do not checkpoint themselves: fast-
/// forward half of each core's instructions with warm-up, then a
/// checkpoint round trip through memory.
void probe_checkpoint(Ctx& ctx, const Detailed& w) {
  const std::uint64_t per_core =
      std::max<std::uint64_t>(1, ctx.run_instructions / 2 /
                                     machine(w).num_cores);
  const core::SimConfig config =
      machine(w, {{"ckpt.ffwd_instructions", std::to_string(per_core)},
                  {"ckpt.warmup", "true"},
                  {"ckpt.stop_at_roi", "false"}});
  Phase probe(ctx.tracer, "probe.checkpoint");
  Machine m = set_up(ctx, w, config);
  record_ckpt(ctx, ffwd_and_checkpoint(ctx, m, label(w, ctx.args.seed), true));
}

// --------------------------------------------------------------- campaign --

/// Small dense ids for the threads that run sweep points (trace tids).
class ThreadIds {
 public:
  int id() {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] =
        ids_.emplace(std::this_thread::get_id(), static_cast<int>(ids_.size()) + 1);
    return it->second;
  }

 private:
  std::mutex mutex_;
  std::map<std::thread::id, int> ids_;
};

struct ServiceRun {
  sweep::SweepReport report;
  std::size_t executed = 0;
  std::size_t prefilled = 0;
};

/// A loopback broker on an ephemeral port served by `workers` Worker
/// threads (one connection each); everything is joined before returning.
///
/// Workers do not re-dial. When the memo store resolves every point, the
/// broker stops lingering as soon as its first helloed worker leaves, so a
/// worker that dials later is refused (about 1 in 100 memo-warm passes
/// with three workers); with re-dialing it would retry for 30 s and then
/// throw. The results table, not the worker's exit, is what gets checked.
ServiceRun run_service(const sweep::SweepSpec& spec, const std::string& memo_dir,
                       unsigned workers) {
  campaign::Broker::Options options;
  options.memo_dir = memo_dir;
  campaign::Broker broker(spec, options);
  ServiceRun out;
  out.prefilled = broker.num_done();
  const std::uint16_t port = broker.listen("127.0.0.1", 0);
  std::thread server([&] { out.report = broker.serve(); });
  std::vector<std::size_t> executed(workers, 0);
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      campaign::Worker::Options worker_options;
      worker_options.port = port;
      worker_options.name = "bench" + std::to_string(w);
      worker_options.reconnect_window = std::chrono::milliseconds(0);
      try {
        executed[w] = campaign::Worker(std::move(worker_options)).run();
      } catch (const std::exception&) {
        executed[w] = 0;  // refused after the broker finished
      }
    });
  }
  for (auto& thread : threads) thread.join();
  server.join();
  for (const std::size_t n : executed) out.executed += n;
  return out;
}

double busy_seconds(const sweep::SweepReport& report) {
  double busy = 0.0;
  for (const auto& point : report.points) busy += point.run.wall_seconds;
  return busy;
}

/// The campaign workload: per-point set-up of the whole grid, then the
/// grid three ways — in-process SweepEngine, TCP cold, TCP memo-warm.
Iteration campaign_iteration(Ctx& ctx) {
  Iteration it;
  Results& r = ctx.results;
  const sweep::SweepSpec spec = campaign_spec(ctx.args.seed);
  const unsigned workers = std::max(1u, ctx.jobs - 1);

  // Set-up: what every point pays before its run — config parse, workload
  // generation and installation, Simulator construction — timed point by
  // point, serially.
  {
    Phase phase(ctx.tracer, "campaign.setup");
    for (const simfw::ConfigMap& point : spec.with_workload_keys().expand()) {
      const double start = now_s();
      core::Simulator sim(core::config_from_map(point));
      loader::load_workload(sim);
      it.setup_s.push_back(now_s() - start);
    }
  }

  std::vector<double> finished(spec.expand().size(), 0.0);
  std::vector<int> finished_tid(finished.size(), 0);
  ThreadIds tids;
  sweep::SweepEngine::Options engine_options;
  engine_options.jobs = ctx.jobs;
  engine_options.collect = [&](core::Simulator&, sweep::PointResult& point) {
    finished[point.index] = now_s();
    finished_tid[point.index] = tids.id();
  };

  const std::filesystem::path memo_dir =
      std::filesystem::path(".bench_out") /
      ("memo-" + std::to_string(::getpid()));
  std::filesystem::remove_all(memo_dir);
  std::filesystem::create_directories(memo_dir);

  sweep::SweepReport engine;
  ServiceRun cold;
  ServiceRun warm;
  double engine_s = 0.0;
  double cold_s = 0.0;
  double warm_s = 0.0;
  const std::uint64_t allocs0 = allocations();
  {
    Phase whole(ctx.tracer, "iteration");
    int pass_span = -1;
    {
      Phase phase(ctx.tracer, "sweep.engine");
      pass_span = ctx.tracer.current();
      engine = sweep::SweepEngine(engine_options).run(spec);
      engine_s = phase.stop();
    }
    it.allocations = allocations() - allocs0;
    {
      Phase phase(ctx.tracer, "campaign.tcp_cold");
      cold = run_service(spec, memo_dir.string(), workers);
      cold_s = phase.stop();
    }
    {
      Phase phase(ctx.tracer, "campaign.tcp_memo_warm");
      warm = run_service(spec, memo_dir.string(), workers);
      warm_s = phase.stop();
    }
    it.wall_s = whole.stop();
    if (pass_span >= 0) {
      for (std::size_t i = 0; i < engine.points.size(); ++i) {
        Span span;
        span.name = "sweep.point";
        span.end = finished[i];
        span.start = finished[i] - engine.points[i].run.wall_seconds;
        span.parent = pass_span;
        span.iteration = ctx.tracer.iteration;
        span.tid = finished_tid[i];
        span.args = {{"index", static_cast<double>(i)}};
        ctx.tracer.spans.push_back(std::move(span));
      }
    }
  }
  std::filesystem::remove_all(memo_dir);

  for (const auto& point : engine.points) {
    r.check(point.ok, "campaign point " + std::to_string(point.index) +
                          " failed: " + point.error);
    it.instructions += point.run.instructions;
  }
  const std::string table = engine.to_json(false);
  r.check(cold.report.to_json(false) == table,
          "TCP cold table differs from the in-process engine table");
  r.check(warm.report.to_json(false) == table,
          "TCP memo-warm table differs from the in-process engine table");
  r.check(warm.executed == 0, "memo-warm pass executed points");
  r.check_digests({{"table", hex(fnv(table))}});

  const double points = static_cast<double>(engine.points.size());
  it.host_mips = ratio(static_cast<double>(it.instructions), engine_s * 1e6);
  it.extra["campaign.engine_points_per_s"] = {ratio(points, engine_s)};
  it.extra["campaign.tcp_points_per_s"] = {ratio(points, cold_s)};
  it.extra["campaign.memo_points_per_s"] = {ratio(points, warm_s)};
  for (const auto& point : engine.points) {
    it.extra["campaign.point_s"].push_back(point.run.wall_seconds);
  }
  auto& c = r.counts;
  std::uint32_t attempts = 0;
  for (const auto& point : engine.points) attempts += point.attempts;
  c["sweep.points"] = points;
  c["sweep.failed"] = static_cast<double>(engine.num_failed());
  c["sweep.attempts"] = attempts;
  c["sweep.utilization"] = ratio(busy_seconds(engine), engine_s * ctx.jobs);
  c["campaign.executed"] = static_cast<double>(cold.executed);
  c["campaign.memo_hit_ratio"] =
      ratio(static_cast<double>(warm.prefilled), points);
  // RESULT records carry no host timing, so the TCP pass's busy time is
  // the same points' run time as measured in the engine pass.
  c["campaign.utilization"] = ratio(busy_seconds(engine), cold_s * workers);
  return it;
}

// --------------------------------------------------------------- main --

Detailed workload_of(const Args& args) {
  Detailed w = detailed_workload(args.workload);
  if (args.size != 0) w.size = args.size;
  return w;
}

Iteration run_iteration(Ctx& ctx, bool traced) {
  const std::string& name = ctx.args.workload;
  if (name == "campaign") return campaign_iteration(ctx);
  if (name == "sampling") {
    return sampling_iteration(ctx, workload_of(ctx.args), traced);
  }
  return detailed_iteration(ctx, workload_of(ctx.args), traced);
}

/// The layer probes after each traced iteration. The campaign's simulated
/// and per-instruction layer metrics come from grid point 0 run on its own.
void run_probes(Ctx& ctx) {
  const Detailed w = workload_of(ctx.args);
  if (ctx.args.workload == "campaign") {
    Phase probe(ctx.tracer, "probe.point0");
    if (ctx.run_cycles == 0) detailed_iteration(ctx, w, false);
    detailed_iteration(ctx, w, true);
  }
  probe_functional(ctx, w);
  if (ctx.args.workload != "sampling") probe_checkpoint(ctx, w);
}

void zero_unused_counts(Ctx& ctx) {
  // Layers a workload does not exercise report zero work.
  for (const char* key :
       {"sweep.points", "sweep.failed", "sweep.attempts", "sweep.utilization",
        "campaign.executed", "campaign.memo_hit_ratio",
        "campaign.utilization"}) {
    ctx.results.counts.emplace(key, 0.0);
  }
}

struct SelfTime {
  double self_s = 0.0;
  double main_self_s = 0.0;  ///< the part on the main thread
  double total_s = 0.0;
  std::size_t count = 0;
};

/// Self time per span name: a span's duration minus the union of its
/// children on the same thread. Children on other threads (parallel sweep
/// points) are their own timelines; the parent waited for them, which is
/// its self time. Summed over the main thread, self times add up to
/// the traced wall time less any untraced gaps between root spans.
std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && spans[span.parent].tid == span.tid) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, SelfTime> table;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span.start;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, span.end);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    SelfTime& row = table[span.name];
    row.total_s += span.end - span.start;
    row.self_s += span.end - span.start - covered;
    if (span.tid == 0) row.main_self_s += span.end - span.start - covered;
    ++row.count;
  }
  return table;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void write_chrome_trace(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream os(path);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n" : "\n") << "{\"name\": " << json_string(s.name)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
       << ", \"ts\": " << json_number(s.start * 1e6)
       << ", \"dur\": " << json_number((s.end - s.start) * 1e6)
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"iteration\": " << s.iteration;
    for (const auto& [key, value] : s.args) {
      os << ", " << json_string(key) << ": " << json_number(value);
    }
    os << "}}";
  }
  os << "\n]}\n";
  if (!os) throw SimError("cannot write trace " + path);
}

/// Peak resident set of this process image in MB. VmHWM, not getrusage:
/// ru_maxrss survives exec, so it would include the forking parent.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  return 0.0;
}

void emit(const Ctx& ctx, std::size_t iterations, double trace_wall_s) {
  const Results& r = ctx.results;
  std::ostream& os = std::cout;
  os << "{\"workload\": " << json_string(ctx.args.workload)
     << ", \"seed\": " << ctx.args.seed
     << ", \"trace\": " << (ctx.args.trace ? "true" : "false")
     << ", \"build_type\": " << json_string(COYOTE_BENCH_BUILD_TYPE)
     << ", \"optimized\": " << (kOptimized ? "true" : "false")
     << ", \"jobs\": " << ctx.jobs << ", \"iterations\": " << iterations
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"peak_rss_mb\": " << json_number(peak_rss_mb());
  os << ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    os << (i ? ", " : "") << json_string(r.errors[i]);
  }
  os << "], \"digests\": {";
  bool first = true;
  for (const auto& [key, value] : r.digests) {
    os << (first ? "" : ", ") << json_string(key) << ": " << json_string(value);
    first = false;
  }
  os << "}, \"samples\": {";
  first = true;
  for (const auto& [key, values] : r.samples) {
    os << (first ? "" : ", ") << json_string(key) << ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      os << (i ? ", " : "") << json_number(values[i]);
    }
    os << "]";
    first = false;
  }
  os << "}, \"counts\": {";
  first = true;
  for (const auto& [key, value] : r.counts) {
    os << (first ? "" : ", ") << json_string(key) << ": " << json_number(value);
    first = false;
  }
  os << "}, \"trace_wall_s\": " << json_number(trace_wall_s)
     << ", \"self_time\": {";
  first = true;
  for (const auto& [name, row] : self_times(ctx.tracer.spans)) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"self_s\": "
       << json_number(row.self_s) << ", \"main_self_s\": "
       << json_number(row.main_self_s) << ", \"total_s\": "
       << json_number(row.total_s) << ", \"count\": " << row.count << "}";
    first = false;
  }
  os << "}}\n";
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw ConfigError("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--size") {
      args.size = std::stoull(value);
    } else {
      throw ConfigError("unknown flag " + flag);
    }
  }
  detailed_workload(args.workload);  // validates the name
  return args;
}

int run(int argc, char** argv) {
  Ctx ctx;
  ctx.args = parse_args(argc, argv);
  ctx.jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::size_t iterations = 0;
  double trace_wall_s = 0.0;
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  try {
    if (kCountBuild) {
      // One untimed iteration: deterministic cost proxies only.
      const Iteration it = run_iteration(ctx, false);
      ctx.results.counts["core.allocs_per_kinstr"] =
          ratio(static_cast<double>(it.allocations),
                static_cast<double>(it.instructions) / 1000.0);
      iterations = 1;
    } else {
      // Host warm-up (caches, page faults, lazy set-up); also learns the
      // run length that sizes the traced windows. Discarded.
      run_iteration(ctx, false);
      const double start = now_s();
      while (iterations < 3 || now_s() - start < ctx.args.seconds) {
        if (!ctx.args.trace) {
          const Iteration it = run_iteration(ctx, false);
          ctx.results.sample("wall_s", it.wall_s);
          for (const double s : it.setup_s) ctx.results.sample("setup_s", s);
          ctx.results.sample("host_mips", it.host_mips);
          for (const auto& [name, values] : it.extra) {
            for (const double v : values) ctx.results.sample(name, v);
          }
        } else {
          untraced_wall.push_back(run_iteration(ctx, false).wall_s);
          ctx.tracer.enabled = true;
          ++ctx.tracer.iteration;
          const double t0 = now_s();
          traced_wall.push_back(run_iteration(ctx, true).wall_s);
          run_probes(ctx);
          trace_wall_s += now_s() - t0;
          ctx.tracer.enabled = false;
        }
        ++iterations;
        if (ctx.results.failed != 0) break;
      }
    }
  } catch (const std::exception& e) {
    ctx.results.check(false, std::string("exception: ") + e.what());
  }
  if (ctx.args.trace) {
    zero_unused_counts(ctx);
    ctx.results.counts["trace.overhead_frac"] =
        ratio(percentile(traced_wall, 0.5), percentile(untraced_wall, 0.5)) - 1.0;
    if (!ctx.args.trace_out.empty()) {
      write_chrome_trace(ctx.tracer.spans, ctx.args.trace_out);
    }
  }
  emit(ctx, iterations, trace_wall_s);
  return 0;
}

}  // namespace
}  // namespace coyote::perfbench

int main(int argc, char** argv) {
  try {
    return coyote::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coyote_bench: %s\n", e.what());
    return 2;
  }
}
