// Golden-trace determinism: the substrate refactor (timing-wheel event
// core, pooled coroutine frames, zero-copy pages, shared log blocks) is
// held to a bit-for-bit determinism contract. Every executed event folds
// its (virtual time, sequence) into the simulator's trace hash; the same
// seed must produce the identical hash on every run — with and without a
// chaos fault schedule running against the deployment. The Committed*
// tests pin the hash itself: a change that means to keep behaviour (a
// refactor, a setting folded into a constant) must leave it unchanged,
// and a change that means to move it updates the constant on purpose.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "service/cluster_monitor.h"
#include "service/deployment.h"

namespace socrates {
namespace service {
namespace {

using engine::Engine;
using engine::MakeKey;
using sim::Simulator;
using sim::Spawn;
using sim::Task;

Task<> Wrap(Task<> inner, bool* done) {
  co_await std::move(inner);
  *done = true;
}

template <typename Fn>
void RunSim(Simulator& s, Fn&& fn) {
  bool done = false;
  Spawn(s, Wrap(fn(), &done));
  int guard = 0;
  while (!done && s.Step()) {
    if (++guard > 400000000) break;
  }
  ASSERT_TRUE(done) << "driver task did not finish";
}

// One full deployment run: start, commit a seeded workload, read it
// back, stop. Returns the folded event-trace hash.
uint64_t RunWorkloadTrace(uint64_t seed) {
  Simulator s;
  s.EnableTraceHash();
  DeploymentOptions o;
  o.partition_map.pages_per_partition = 1024;
  o.num_page_servers = 2;
  o.num_secondaries = 1;
  o.compute.mem_pages = 48;
  o.compute.ssd_pages = 128;
  Deployment d(s, o);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    Engine* e = d.primary_engine();
    for (uint64_t k = 0; k < 200; k++) {
      auto txn = e->Begin();
      // Value size depends on the seed so different seeds produce a
      // different log volume (and thus a different event schedule).
      std::string val(8 + (seed * 7 + k) % 96, 'v');
      (void)e->Put(txn.get(), MakeKey(1, (seed + k) % 300), val);
      (void)co_await e->Commit(txn.get());
    }
    for (uint64_t k = 0; k < 50; k++) {
      auto txn = e->Begin();
      auto got = co_await e->Get(txn.get(), MakeKey(1, (seed + k) % 300));
      (void)got;
    }
    co_await d.page_server(0)->applied_lsn().WaitFor(
        d.log_client().end_lsn());
  });
  d.Stop();
  s.Run();
  return s.trace_hash();
}

// The workload trace on the log path perfbench's log_heavy runs: XIO
// landing zone, adaptive group-commit blocks, compressed payloads.
uint64_t RunLogPathTrace(uint64_t seed) {
  Simulator s;
  s.EnableTraceHash();
  DeploymentOptions o;
  o.lz_profile = sim::DeviceProfile::Xio();
  o.xlog_client.block_sizing = xlog::BlockSizing::kAdaptive;
  o.xlog_client.compress_blocks = true;
  o.partition_map.pages_per_partition = 1024;
  o.num_page_servers = 2;
  o.compute.mem_pages = 48;
  o.compute.ssd_pages = 128;
  Deployment d(s, o);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    Engine* e = d.primary_engine();
    // Sixteen committers with staggered starts and think times: the
    // adaptive controller sees a steady arrival stream to hold cuts for.
    auto committer = [&](uint64_t c) -> Task<> {
      co_await sim::Delay(s, 1 + c * 97);
      for (uint64_t k = 0; k < 25; k++) {
        co_await sim::Delay(s, 1 + (c * 31 + k * 17) % 200);
        auto txn = e->Begin();
        std::string val(16 + (seed * 13 + c * 7 + k) % 200, 'a' + c % 26);
        (void)e->Put(txn.get(), MakeKey(1, (seed + c * 25 + k) % 400), val);
        (void)co_await e->Commit(txn.get());
      }
    };
    std::vector<Task<>> tasks;
    for (uint64_t c = 0; c < 16; c++) tasks.push_back(committer(c));
    co_await sim::Gather(s, std::move(tasks));
    for (int p = 0; p < 2; p++) {
      co_await d.page_server(p)->applied_lsn().WaitFor(
          d.log_client().end_lsn());
    }
  });
  // The scenario must reach the paths it is named for.
  EXPECT_GT(d.log_client().compressed_blocks(), 0u);
  EXPECT_GT(d.log_client().adaptive_holds(), 0u);
  d.Stop();
  s.Run();
  return s.trace_hash();
}

// Same shape as the chaos soak: window faults (partitions, flaky links,
// gray latency) scheduled from a seeded FaultPlan while the workload
// commits, with the monitor repairing damage.
uint64_t RunChaosTrace(uint64_t seed) {
  Simulator s;
  s.EnableTraceHash();
  DeploymentOptions o;
  o.partition_map.pages_per_partition = 512;
  o.num_page_servers = 2;
  o.num_secondaries = 1;
  o.compute.mem_pages = 48;
  o.compute.ssd_pages = 128;
  o.page_server.checkpoint_interval_us = 150 * 1000;
  Deployment d(s, o);

  chaos::RandomPlanOptions ro;
  ro.num_page_servers = 2;
  ro.num_secondaries = 1;
  ro.events = 6;
  ro.start_us = 150 * 1000;
  ro.horizon_us = 900 * 1000;
  ro.crashes = false;  // window faults only; crash timing is test-driven
  chaos::FaultPlan plan = chaos::FaultPlan::Random(seed, ro);

  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    d.EnableMonitor(MonitorOptions{});
    chaos::SchedulePlan(s, plan, d.ChaosTargets());
    const SimTime end = plan.end_us() + 100 * 1000;
    uint64_t k = 0;
    while (s.now() < end) {
      if (d.primary() != nullptr && d.primary()->alive()) {
        Engine* e = d.primary_engine();
        auto txn = e->Begin();
        (void)e->Put(txn.get(), MakeKey(1, k % 200),
                     "c" + std::to_string(k));
        (void)co_await e->Commit(txn.get());
        k++;
      }
      co_await sim::Delay(s, 2000);
    }
  });
  d.Stop();
  s.Run();
  return s.trace_hash();
}

TEST(GoldenTrace, WorkloadTraceIdenticalAcrossRuns) {
  const uint64_t h1 = RunWorkloadTrace(7);
  const uint64_t h2 = RunWorkloadTrace(7);
  const uint64_t h3 = RunWorkloadTrace(7);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2, h3);
  // And the hash actually depends on the workload (not a constant).
  EXPECT_NE(h1, RunWorkloadTrace(8));
}

TEST(GoldenTrace, ChaosTraceIdenticalAcrossRuns) {
  const uint64_t h1 = RunChaosTrace(3);
  const uint64_t h2 = RunChaosTrace(3);
  const uint64_t h3 = RunChaosTrace(3);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2, h3);
  EXPECT_NE(h1, RunChaosTrace(4));
}

// Hashes measured on the tree before the option fields nothing set were
// folded into constants; identical in Release, RelWithDebInfo and Debug.
TEST(GoldenTrace, WorkloadTraceMatchesCommittedHash) {
  EXPECT_EQ(RunWorkloadTrace(7), 0xb439da4e4edca2f2ull);
}

TEST(GoldenTrace, ChaosTraceMatchesCommittedHash) {
  EXPECT_EQ(RunChaosTrace(3), 0x075756944a0c4b49ull);
}

TEST(GoldenTrace, LogPathTraceMatchesCommittedHash) {
  const uint64_t h = RunLogPathTrace(5);
  EXPECT_NE(h, RunLogPathTrace(6));
  EXPECT_EQ(h, 0x09688b23238c7df9ull);
}

}  // namespace
}  // namespace service
}  // namespace socrates
