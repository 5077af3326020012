// Microbenchmarks (google-benchmark): throughput of the building blocks —
// the event engine, soft-dirty page tracking, the checkpoint engine's
// dump/restore path, and the DFS write pipeline. These bound how large a
// cluster/day the simulators can replay per wall-clock second.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/checkpoint_engine.h"
#include "common/rng.h"
#include "dfs/dfs.h"
#include "obs/observability.h"
#include "sim/simulator.h"

namespace ckpt {
namespace {

// Set from main() when CKPT_OBS=1: fixtures record into this sink and the
// aggregate snapshot is exported after the benchmarks run. The trace ring is
// kept small — benchmark iterations would otherwise generate millions of
// events; drop-oldest keeps the last iterations' worth.
Observability* g_obs = nullptr;

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    const int events = static_cast<int>(state.range(0));
    for (int i = 0; i < events; ++i) {
      sim.ScheduleAt(i, [] {});
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.EventsProcessed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorEventThroughput)->Arg(1 << 12)->Arg(1 << 16);

void BM_SimulatorCascadedEvents(benchmark::State& state) {
  // Each event schedules the next: measures scheduling latency, not heap
  // throughput.
  for (auto _ : state) {
    Simulator sim;
    const std::int64_t total = state.range(0);
    std::int64_t fired = 0;
    std::function<void()> chain = [&] {
      if (++fired < total) sim.ScheduleAfter(1, chain);
    };
    sim.ScheduleAt(0, chain);
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorCascadedEvents)->Arg(1 << 14);

void BM_MemoryImageTouchRandom(benchmark::State& state) {
  MemoryImage image(GiB(2), kMiB);
  image.StartTracking();
  Rng rng(1);
  for (auto _ : state) {
    image.TouchRandomFraction(0.05, rng);
    benchmark::DoNotOptimize(image.dirty_pages());
    image.StartTracking();  // reset for the next round
  }
}
BENCHMARK(BM_MemoryImageTouchRandom);

void BM_MemoryImageTouchRange(benchmark::State& state) {
  MemoryImage image(GiB(2), 4 * kKiB);
  image.StartTracking();
  Bytes offset = 0;
  for (auto _ : state) {
    image.TouchRange(offset % (GiB(2) - MiB(1)), MiB(1));
    offset += MiB(1) + 4 * kKiB;
    benchmark::DoNotOptimize(image.dirty_pages());
  }
}
BENCHMARK(BM_MemoryImageTouchRange);

struct EngineFixture {
  Simulator sim;
  NetworkModel net{&sim, NetworkConfig{}};
  std::vector<std::unique_ptr<StorageDevice>> devices;
  std::unique_ptr<DfsCluster> dfs;
  std::unique_ptr<DfsStore> store;
  std::unique_ptr<CheckpointEngine> engine;

  EngineFixture() {
    DfsConfig config;
    config.replication = 2;
    dfs = std::make_unique<DfsCluster>(&sim, &net, config);
    dfs->set_observability(g_obs);
    for (int i = 0; i < 4; ++i) {
      net.AddNode(NodeId(i));
      devices.push_back(std::make_unique<StorageDevice>(
          &sim, StorageMedium::Nvm(), "dn"));
      dfs->AddDataNode(NodeId(i), devices.back().get());
    }
    store = std::make_unique<DfsStore>(dfs.get());
    store->set_observability(g_obs);
    engine = std::make_unique<CheckpointEngine>(&sim, store.get(), g_obs);
  }
};

void BM_EngineDumpRestoreCycle(benchmark::State& state) {
  EngineFixture fx;
  ProcessState proc(TaskId(1), MiB(state.range(0)), kMiB);
  Rng rng(3);
  for (auto _ : state) {
    bool ok = false;
    fx.engine->Dump(proc, NodeId(0), DumpOptions{},
                    [&](DumpResult r) { ok = r.ok; });
    fx.sim.Run();
    fx.engine->Restore(proc, NodeId(1), [&](RestoreResult r) { ok &= r.ok; });
    fx.sim.Run();
    proc.memory.TouchRandomFraction(0.1, rng);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineDumpRestoreCycle)->Arg(256)->Arg(1024);

void BM_DfsWrite(benchmark::State& state) {
  EngineFixture fx;
  std::int64_t seq = 0;
  for (auto _ : state) {
    bool ok = false;
    fx.dfs->Write("/f" + std::to_string(seq++), MiB(state.range(0)), NodeId(0),
                  [&](bool w) { ok = w; });
    fx.sim.Run();
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DfsWrite)->Arg(64)->Arg(512);

}  // namespace
}  // namespace ckpt

int main(int argc, char** argv) {
  std::unique_ptr<ckpt::Observability> obs;
  if (ckpt::ObsEnabled()) {
    obs = std::make_unique<ckpt::Observability>(/*trace_capacity=*/1 << 16);
    ckpt::g_obs = obs.get();
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (obs != nullptr) {
    const std::string metrics_path =
        ckpt::ObsPath("bench_micro_checkpoint.metrics.json");
    const std::string trace_path =
        ckpt::ObsPath("bench_micro_checkpoint.trace.json");
    if (!obs->WriteMetricsJson(metrics_path)) {
      std::fprintf(stderr, "obs: cannot write %s\n", metrics_path.c_str());
    }
    if (!obs->WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "obs: cannot write %s\n", trace_path.c_str());
    }
  }
  return 0;
}
