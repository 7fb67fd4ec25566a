// Cell benchmark program. Runs the experiment cells of one named workload
// and prints machine-readable lines that cellbench/run.py folds into the
// benchmark's metrics. One process, one thread, one workload.
//
//   cellbench run   WORKLOAD SEED SECONDS MIN_PASSES
//   cellbench trace WORKLOAD SEED            (WFS_PROF_ZONES build only)
//
// `run` times analysis::runExperiment + cellJson per cell, the path a
// `wfsim sweep` user pays for. `trace` rebuilds each cell's world from the
// same public constructors src/analysis/experiment.cpp uses, records spans
// around the calls into each layer, reads the engine's deterministic
// counters, and brackets the cells with two WFPROF_ZONE table dumps on
// stderr. Both modes print every cell's cellJson row so the harness can
// check that the rebuilt world did not drift from runExperiment.
//
// Output lines (stdout):
//   ready                       warm-up cell done, timed work starts
//   row PASS CELL JSON          one cellJson row
//   pass PASS WALL_S            host seconds for one pass over the cells
//   cal S S S                   three timings of the calibration kernel
//   peak_rss_kb N               getrusage peak resident set
//   span CELL ID PARENT NAME START_S END_S   (trace)
//   counter CELL NAME VALUE                   (trace)

#include <sys/resource.h>

#include <chrono>
#include <queue>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/export.hpp"
#include "analysis/sweep.hpp"
#include "apps/broadband.hpp"
#include "apps/epigenome.hpp"
#include "apps/montage.hpp"
#include "cloud/billing.hpp"
#include "cloud/context_broker.hpp"
#include "cloud/provisioner.hpp"
#include "net/fabric.hpp"
#include "prof/zone.hpp"
#include "simcore/rng.hpp"
#include "storage/gluster/gluster_fs.hpp"
#include "storage/local/local_fs.hpp"
#include "storage/nfs/nfs_fs.hpp"
#include "storage/pvfs/pvfs_fs.hpp"
#include "storage/s3/s3_fs.hpp"
#include "wf/engine.hpp"
#include "wf/planner.hpp"
#include "wf/synth/generate.hpp"
#include "wf/synth/spec.hpp"

namespace {

using namespace wfs;
using analysis::App;
using analysis::ExperimentConfig;
using analysis::StorageKind;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now() { return std::chrono::duration<double>(Clock::now() - kEpoch).count(); }

[[noreturn]] void die(const std::string& msg) {
  std::cerr << "cellbench: " << msg << "\n";
  std::exit(2);
}

ExperimentConfig appCell(App app, StorageKind kind, int nodes, std::uint64_t seed,
                         double scale = 1.0) {
  ExperimentConfig cfg;
  cfg.app = app;
  cfg.storage = kind;
  cfg.workerNodes = nodes;
  cfg.seed = seed;
  cfg.appScale = scale;
  return cfg;
}

ExperimentConfig synthCell(const std::string& spec, StorageKind kind, int nodes,
                           std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.source = analysis::WorkflowSource::kSynthetic;
  cfg.synthSpec = wf::synth::SynthSpec::parse(spec).canonical();
  cfg.storage = kind;
  cfg.workerNodes = nodes;
  cfg.seed = seed;
  return cfg;
}

struct Workload {
  std::vector<ExperimentConfig> cells;
  /// Small cell on the same code path, run untimed before the first timed
  /// cell so lazy set-up and allocator growth are paid outside the timing.
  /// It keeps one seed whatever the workload seed, so set-up does the same
  /// work in every run.
  ExperimentConfig warmup;
};

constexpr std::uint64_t kWarmupSeed = 42;

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "pvfs-dense") {
    w.cells.push_back(appCell(App::kEpigenome, StorageKind::kPvfs, 8, seed));
    w.warmup = appCell(App::kEpigenome, StorageKind::kPvfs, 8, kWarmupSeed, 0.1);
  } else if (name == "pvfs-train") {
    w.cells.push_back(appCell(App::kBroadband, StorageKind::kPvfs, 2, seed));
    w.warmup = appCell(App::kBroadband, StorageKind::kPvfs, 2, kWarmupSeed, 0.05);
  } else if (name == "layered-100k") {
    w.cells.push_back(synthCell("layered:tasks=100000", StorageKind::kGlusterDist, 8, seed));
    w.warmup = synthCell("layered:tasks=20000", StorageKind::kGlusterDist, 8, kWarmupSeed);
  } else if (name == "backend-grid") {
    // The non-PVFS cells of Figs 2-4, in `wfsim sweep` grid order.
    const StorageKind kinds[] = {StorageKind::kLocal, StorageKind::kS3, StorageKind::kNfs,
                                 StorageKind::kGlusterNufa, StorageKind::kGlusterDist};
    for (const App app : {App::kMontage, App::kEpigenome, App::kBroadband}) {
      for (const StorageKind kind : kinds) {
        for (const int n : {1, 2, 4, 8}) {
          if (kind == StorageKind::kLocal && n != 1) continue;
          if ((kind == StorageKind::kGlusterNufa || kind == StorageKind::kGlusterDist) && n < 2) {
            continue;
          }
          w.cells.push_back(appCell(app, kind, n, seed));
        }
      }
    }
    w.warmup = appCell(App::kMontage, StorageKind::kNfs, 4, kWarmupSeed);
  } else {
    die("unknown workload '" + name + "'");
  }
  return w;
}

/// Fixed work that stands in for the host's current speed: random walks
/// over a table larger than L2 feeding a binary heap, the access pattern
/// of the simulator's event queue and flow slabs. It is compiled here,
/// never in the library, so a change to the simulator cannot move it. The
/// harness divides each pass by the kernel time measured next to it, so a
/// host that slows down or speeds up between runs moves both alike.
double calibrationKernel() {
  const double t0 = now();
  constexpr std::uint32_t kTableBits = 20;
  std::vector<std::uint32_t> table(std::size_t{1} << kTableBits);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t& t : table) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    t = static_cast<std::uint32_t>(x) & ((1u << kTableBits) - 1);
  }
  std::priority_queue<double> heap;
  std::uint32_t p = 0;
  double sum = 0.0;
  for (int i = 0; i < 400000; ++i) {
    p = table[p];
    heap.push(static_cast<double>(p));
    if (heap.size() > 4096) {
      sum += heap.top();
      heap.pop();
    }
  }
  const double t = now() - t0;
  if (sum < 0.0) std::printf("unreachable\n");  // keeps the loop observable
  return t;
}

void printCalibration() {
  const double a = calibrationKernel();
  const double b = calibrationKernel();
  const double c = calibrationKernel();
  std::printf("cal %.9f %.9f %.9f\n", a, b, c);
}

analysis::SweepCellResult runCell(const ExperimentConfig& cfg) {
  analysis::SweepCellResult cell;
  cell.config = cfg;
  try {
    cell.result = analysis::runExperiment(cfg);
    cell.ok = true;
  } catch (const std::exception& e) {
    cell.error = e.what();
  }
  return cell;
}

void printRow(std::size_t pass, std::size_t index, const std::string& row) {
  std::printf("row %zu %zu %s\n", pass, index, row.c_str());
}

long peakRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

int runMode(const Workload& w, double seconds, std::size_t minPasses) {
  static_cast<void>(analysis::cellJson(runCell(w.warmup)));
  std::printf("ready\n");
  std::fflush(stdout);
  printCalibration();
  // Passes continue while another one fits in `seconds`, so a run ends
  // near its budget even when one pass takes a large share of it.
  const double t0 = now();
  double last = 0.0;
  for (std::size_t pass = 0; pass < minPasses || now() - t0 + last < seconds; ++pass) {
    const double p0 = now();
    std::vector<std::string> rows;
    rows.reserve(w.cells.size());
    for (const ExperimentConfig& cfg : w.cells) rows.push_back(analysis::cellJson(runCell(cfg)));
    const double wall = now() - p0;
    last = wall;
    for (std::size_t i = 0; i < rows.size(); ++i) printRow(pass, i, rows[i]);
    std::printf("pass %zu %.9f\n", pass, wall);
    printCalibration();
    std::fflush(stdout);
  }
  std::printf("peak_rss_kb %ld\n", peakRssKb());
  return 0;
}

#if defined(WFS_PROF_ZONES)

/// In-memory span log: one record per call into a layer, with the span
/// that encloses it, written out once the cells are done.
class SpanLog {
 public:
  struct Span {
    std::size_t cell;
    int parent;
    const char* name;
    double start;
    double end;
  };

  void setCell(std::size_t cell) { cell_ = cell; }

  std::size_t begin(const char* name) {
    spans_.push_back(Span{cell_, open_.empty() ? -1 : open_.back(), name, now(), 0.0});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return spans_.size() - 1;
  }

  void end(std::size_t id) {
    spans_[id].end = now();
    open_.pop_back();
  }

  void print() const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::printf("span %zu %zu %d %s %.9f %.9f\n", s.cell, i, s.parent, s.name, s.start, s.end);
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::size_t cell_ = 0;
};

using Counters = std::vector<std::pair<const char*, double>>;

wf::AbstractWorkflow makeWorkflow(const ExperimentConfig& cfg, sim::Rng& rng,
                                  wf::TransformationCatalog& tc) {
  if (cfg.source == analysis::WorkflowSource::kSynthetic) {
    const wf::synth::SynthSpec spec = wf::synth::SynthSpec::parse(cfg.synthSpec);
    wf::synth::registerSynthTransformations(tc);
    return wf::synth::makeSynthetic(spec, rng);
  }
  switch (cfg.app) {
    case App::kMontage: {
      apps::registerMontageTransformations(tc);
      apps::MontageConfig c;
      c.scale = cfg.appScale;
      return apps::makeMontage(c, rng);
    }
    case App::kBroadband: {
      apps::registerBroadbandTransformations(tc);
      apps::BroadbandConfig c;
      c.scale = cfg.appScale;
      return apps::makeBroadband(c, rng);
    }
    case App::kEpigenome: {
      apps::registerEpigenomeTransformations(tc);
      apps::EpigenomeConfig c;
      c.scale = cfg.appScale;
      return apps::makeEpigenome(c, rng);
    }
  }
  throw std::logic_error("cellbench: unknown app");
}

std::unique_ptr<storage::StorageSystem> makeStore(const ExperimentConfig& cfg, sim::Simulator& sim,
                                                  net::FlowNetwork& net, net::Fabric& fabric,
                                                  cloud::VirtualCluster& cluster) {
  std::vector<storage::StorageNode> nodes = cluster.workerNodes();
  switch (cfg.storage) {
    case StorageKind::kLocal:
      return std::make_unique<storage::LocalFs>(sim, nodes);
    case StorageKind::kS3:
      return std::make_unique<storage::S3Fs>(sim, net, nodes);
    case StorageKind::kNfs: {
      storage::NfsFs::Config nfsCfg;
      nfsCfg.server.threads = cluster.auxiliary->type().cores;
      return std::make_unique<storage::NfsFs>(sim, fabric, nodes,
                                              cluster.auxiliary->storageNode(), nfsCfg);
    }
    case StorageKind::kGlusterNufa:
    case StorageKind::kGlusterDist:
      return std::make_unique<storage::GlusterFs>(
          sim, fabric, nodes,
          cfg.storage == StorageKind::kGlusterNufa ? storage::GlusterMode::kNufa
                                                   : storage::GlusterMode::kDistribute,
          storage::GlusterFs::Config{});
    case StorageKind::kPvfs:
      return std::make_unique<storage::PvfsFs>(sim, fabric, nodes, storage::PvfsFs::Config{});
    default:
      throw std::logic_error("cellbench: storage kind not used by any workload");
  }
}

/// Closes the world.teardown span once every other local of tracedCell
/// has been destroyed (it is declared first, so it is destroyed last).
struct TeardownProbe {
  explicit TeardownProbe(SpanLog& l) : log{&l} {}
  TeardownProbe(const TeardownProbe&) = delete;
  TeardownProbe& operator=(const TeardownProbe&) = delete;
  ~TeardownProbe() {
    if (span != static_cast<std::size_t>(-1)) log->end(span);
  }
  SpanLog* log;
  std::size_t span = static_cast<std::size_t>(-1);
};

/// The world runExperiment builds for a fault-free, unreplicated cell,
/// rebuilt step by step so each layer's share of the host time is visible.
/// Returns the cell's cellJson row.
std::string tracedCell(const ExperimentConfig& cfg, SpanLog& log, Counters& ctr) {
  TeardownProbe probe{log};

  std::size_t span = log.begin("cloud.provision");
  sim::Simulator sim;
  net::FlowNetwork net{sim};
  net::Fabric fabric{net, net::Fabric::Config{}};
  sim::Rng rng{cfg.seed};
  cloud::BillingEngine billing;
  cloud::Provisioner::Config provCfg;
  cloud::Provisioner prov{sim, net, billing, provCfg};
  cloud::VirtualCluster cluster;
  for (int i = 0; i < cfg.workerNodes; ++i) {
    cluster.workers.push_back(prov.request(cfg.workerType, "worker" + std::to_string(i)));
  }
  if (cfg.storage == StorageKind::kNfs) {
    cluster.auxiliary = prov.request(cfg.nfsServerType, "nfs-server");
  }
  cloud::ContextBroker broker{sim, prov};
  std::unique_ptr<storage::StorageSystem> store = makeStore(cfg, sim, net, fabric, cluster);
  log.end(span);

  span = log.begin("wf.build");
  wf::TransformationCatalog tc;
  sim::Rng appRng = rng.fork();
  wf::AbstractWorkflow abstract = makeWorkflow(cfg, appRng, tc);
  log.end(span);

  span = log.begin("wf.plan");
  wf::ReplicaCatalog rc;
  for (const auto& f : abstract.externalInputs) rc.registerReplica(f.lfn, store->name());
  wf::SiteCatalog site;
  site.workerNodes = cfg.workerNodes;
  site.coresPerNode = cluster.workers.front()->type().cores;
  site.memoryPerNode = cluster.workers.front()->type().memory;
  site.storageSystem = store->name();
  wf::Planner planner{tc, rc, site};
  wf::Planner::Options planOpt;
  planOpt.clusterFactor = cfg.clusterFactor;
  wf::ExecutableWorkflow exec = planner.plan(std::move(abstract), planOpt);
  log.end(span);

  span = log.begin("storage.preload");
  for (const auto& f : exec.externalInputs) store->preload(f.lfn, f.size);
  log.end(span);

  span = log.begin("wf.engine-setup");
  std::vector<int> slots;
  std::vector<sim::Resource*> memories;
  for (auto& vm : cluster.workers) {
    slots.push_back(vm->type().cores);
    memories.push_back(&vm->memory());
  }
  wf::Scheduler scheduler{sim, slots, wf::Scheduler::Policy::kFifo, store.get()};
  prof::WfProf wfprof;
  wf::DagmanEngine::Options engineOpt;
  engineOpt.coreSpeed = cluster.workers.front()->type().coreSpeed;
  wf::DagmanEngine engine{sim, exec, *store, scheduler, memories, &wfprof, engineOpt};
  sim.spawn([](cloud::ContextBroker& cb, cloud::VirtualCluster& vc, sim::Rng& r,
               wf::DagmanEngine& eng) -> sim::Task<void> {
    co_await cb.deploy(vc, r);
    co_await eng.execute();
  }(broker, cluster, rng, engine));
  log.end(span);

  span = log.begin("simcore.run");
  const std::size_t events = sim.run();
  log.end(span);
  if (engine.completedJobs() != exec.dag.jobCount()) {
    throw std::logic_error("cellbench: workflow did not complete");
  }

  span = log.begin("cloud.billing");
  const double makespan = engine.makespan().asSeconds();
  const auto start = sim::SimTime::origin();
  const auto end = start + sim::Duration::fromSeconds(makespan);
  for (auto& vm : cluster.workers) billing.recordInstance(vm->type(), start, end);
  if (cluster.auxiliary) billing.recordInstance(cluster.auxiliary->type(), start, end);
  if (cfg.storage == StorageKind::kS3) {
    auto& s3 = static_cast<storage::S3Fs&>(*store);
    billing.recordS3Requests(s3.objectStore().putCount(), s3.objectStore().getCount());
    billing.recordS3Storage(s3.objectStore().bytesStored(), makespan);
  }
  analysis::SweepCellResult cell;
  cell.config = cfg;
  cell.ok = true;
  cell.result.makespanSeconds = makespan;
  cell.result.cost = billing.report();
  cell.result.storageMetrics = store->metrics();
  cell.result.profile = wfprof.profile();
  cell.result.tasks = exec.dag.jobCount();
  cell.result.storageName = store->name();
  cell.result.workflowName = exec.name;
  log.end(span);

  span = log.begin("analysis.export");
  std::string row = analysis::cellJson(cell);
  static_cast<void>(analysis::metricsJsonl(cell));
  log.end(span);

  const storage::StorageMetrics& sm = cell.result.storageMetrics;
  double queueSim = 0.0;
  for (const storage::LayerMetrics& layer : sm.layers) queueSim += layer.queueSeconds;
  ctr.emplace_back("simcore.events", static_cast<double>(events));
  ctr.emplace_back("simcore.arena_reserved_bytes", static_cast<double>(sim.arena().bytesReserved()));
  ctr.emplace_back("net.fills", static_cast<double>(net.fillCount()));
  ctr.emplace_back("net.touches", static_cast<double>(net.settleTouches()));
  ctr.emplace_back("net.flows", static_cast<double>(net.completedFlows()));
  ctr.emplace_back("wf.tasks", static_cast<double>(exec.dag.jobCount()));
  ctr.emplace_back("storage.ops", static_cast<double>(sm.readOps + sm.writeOps));
  ctr.emplace_back("storage.cache_hits", static_cast<double>(sm.cacheHits));
  ctr.emplace_back("storage.cache_misses", static_cast<double>(sm.cacheMisses));
  ctr.emplace_back("storage.queue_sim_s", queueSim);

  probe.span = log.begin("world.teardown");
  return row;
}

int traceMode(const Workload& w) {
  {
    SpanLog warmLog;
    Counters warmCtr;
    static_cast<void>(tracedCell(w.warmup, warmLog, warmCtr));
  }
  std::printf("ready\n");
  std::fflush(stdout);
  // Zone totals are process-wide; the harness subtracts this first table
  // (warm-up only) from the one printed after the timed cells.
  prof::dumpZones();
  SpanLog log;
  std::vector<Counters> counters(w.cells.size());
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    log.setCell(i);
    const std::size_t span = log.begin("cell");
    rows.push_back(tracedCell(w.cells[i], log, counters[i]));
    log.end(span);
  }
  prof::dumpZones();
  std::fflush(stderr);
  for (std::size_t i = 0; i < rows.size(); ++i) printRow(0, i, rows[i]);
  log.print();
  for (std::size_t i = 0; i < counters.size(); ++i) {
    for (const auto& [name, v] : counters[i]) {
      std::printf("counter %zu %s %.17g\n", i, name, v);
    }
  }
  std::printf("peak_rss_kb %ld\n", peakRssKb());
  return 0;
}

#else

int traceMode(const Workload&) { die("trace mode needs a -DWFS_PROF_ZONES=ON build"); }

#endif

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() < 3) die("usage: cellbench run|trace WORKLOAD SEED [SECONDS MIN_PASSES]");
  const std::uint64_t seed = std::stoull(args[2]);
  const Workload w = makeWorkload(args[1], seed);
  if (args[0] == "run") {
    if (args.size() != 5) die("usage: cellbench run WORKLOAD SEED SECONDS MIN_PASSES");
    return runMode(w, std::stod(args[3]), std::stoul(args[4]));
  }
  if (args[0] == "trace") return traceMode(w);
  die("unknown mode '" + args[0] + "'");
}
