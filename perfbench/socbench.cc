// socbench: one repetition of the repository benchmark for one workload.
//
// A repetition builds a fresh Socrates deployment, loads it with the CDB
// loader, and drives it with an open loop of transactions the benchmark
// generates itself from --seed: Poisson arrivals at each rung of a fixed
// ladder of offered rates, in simulated time. Every transaction goes
// through the Primary's public engine::Engine calls and charges CDB-shaped
// CPU on the Primary's sim::CpuResource. Latency is measured from each
// transaction's due time, so queueing behind a stall is counted.
//
// The simulator is deterministic: the simulated results of a repetition
// are a pure function of (workload, seed). Wall-clock time measures how
// fast the simulator itself runs. perfbench/run.py runs several
// repetitions, checks that they agree exactly, and reports medians.
//
// With --traced 1 the benchmark additionally records spans around its own
// calls into Engine and CpuResource (kept in memory, written out at the
// end to spans-NAME.tsv beside the binary) and reports per-layer metrics
// from spans plus before/after deltas of the components' public stats
// accessors. Spans schedule no events, so a traced repetition must
// reproduce the untraced one's simulated results and event count exactly.
//
// Usage: socbench --workload NAME --seed N [--traced 0|1]
// Prints one JSON object on stdout. Exit code 0 only when the correctness
// gate passes.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "engine/log_sink.h"
#include "engine/txn_engine.h"
#include "service/deployment.h"
#include "workload/cdb.h"

namespace socrates {
namespace perfbench {
namespace {

using engine::MakeKey;

// ---------------------------------------------------------------------
// Workloads.

enum Kind : uint8_t {
  kPoint,     // 1-10 point reads across tables
  kRange,     // 16-128 row range scan
  kRmw,       // 1-4 read+update pairs on one table
  kBulk,      // 64-127 consecutive row updates
  kInsert,    // 4-11 fresh rows above the loaded range
  kLite,      // one small update (Appendix A UpdateLite)
  kAnalytic,  // filtered scan / aggregate over 512-2048 rows (HTAP)
  kNumKinds,
};

// Per-operation CPU in microseconds before kCpuScale; the same shape as
// workload/cdb.cc, so throughput saturates where CdbWorkload's does.
constexpr double kTxnBaseUs = 120;
constexpr double kPointReadUs = 60;
constexpr double kScanRowUs = 18;
constexpr double kUpdateRowUs = 90;
constexpr double kInsertRowUs = 100;
constexpr double kLiteUpdateUs = 45;
constexpr double kAnalyticRowUs = 2;

constexpr int kTables = 6;

// Transactions that execute at once on the Primary (its worker pool).
// Later arrivals wait in arrival order, and the wait counts in their
// latency. Below the knee fewer than this are ever in flight; on the
// overload rung the cap keeps the backlog queued instead of thrashing the
// buffer pool, so peak_tps measures capacity rather than collapse.
constexpr int kWorkers = 128;

// CPU multiplier applied to the per-operation costs above, as
// CdbOptions::cpu_scale: the cost of one CDB operation on this
// deployment's cores.
constexpr double kCpuScale = 6.8;

// Page Servers holding the loaded pages. Partitions are sized from the
// loaded page count: the loaded pages, with kPartitionSlack to spare,
// spread over these servers, and one more Page Server's partition starts
// empty for the pages the run allocates (inserts, version growth), which
// get the highest page ids.
constexpr int kDataPageServers = 4;
constexpr double kPartitionSlack = 1.1;

struct Spec {
  const char* name;
  uint64_t scale;  // CDB scale factor: rows per table = multiplier * scale
  std::array<double, kNumKinds> mix;
  int cores;
  double mem_frac;     // compute memory pages / loaded pages
  double ssd_frac;     // compute RBPEX pages / loaded pages (0 = no RBPEX)
  double ps_mem_frac;  // each Page Server's memory pages / its partition
  // Log on the XIO landing zone with adaptive, compressed blocks (the
  // Appendix A production log); otherwise DirectDrive with fixed blocks.
  bool xio_log;
  // Offered txn/s, ascending. The first, nominal rung reports latencies;
  // the rungs after it bracket the knee; the last one is the overload
  // rung, offered well above capacity.
  std::vector<double> ladder;
  double p99_limit_ms;  // goodput latency limit on txn p99
  SimTime warmup_us;
  SimTime nominal_window_us;  // long, for enough samples beyond p99
  SimTime window_us;          // each knee rung
};

// The overload rung runs a third of a knee rung's window: it measures
// only completions at saturation, and its growing backlog must drain.
constexpr SimTime kOverloadWindowDivisor = 3;

constexpr int kNominalRung = 0;

// Rationale for each choice is in perfbench/README.md.
const Spec kSpecs[] = {
    {
        .name = "oltp_cached",
        .scale = 600,
        .mix = {0.50, 0.25, 0.17, 0.02, 0.06, 0.0, 0.0},
        .cores = 8,
        .mem_frac = 0.5,
        .ssd_frac = 1.0,
        .ps_mem_frac = 0.5,
        .xio_log = false,
        .ladder = {700, 1150, 1280, 1380, 2100},
        .p99_limit_ms = 60,
        .warmup_us = 1000 * 1000,
        .nominal_window_us = 16 * 1000 * 1000,
        .window_us = 3 * 1000 * 1000,
    },
    {
        .name = "htap_remote",
        .scale = 800,
        .mix = {0.40, 0.15, 0.11, 0.0, 0.04, 0.0, 0.30},
        .cores = 8,
        .mem_frac = 0.08,
        .ssd_frac = 0.0,
        .ps_mem_frac = 0.3,
        .xio_log = false,
        .ladder = {600, 1500, 1650, 1800, 2800},
        .p99_limit_ms = 30,
        .warmup_us = 500 * 1000,
        .nominal_window_us = 5 * 1000 * 1000,
        .window_us = 1500 * 1000,
    },
    {
        .name = "log_heavy",
        .scale = 600,
        .mix = {0.10, 0.0, 0.0, 0.0, 0.0, 0.90, 0.0},
        .cores = 4,
        .mem_frac = 1.0,
        .ssd_frac = 1.0,
        .ps_mem_frac = 1.0,
        .xio_log = true,
        .ladder = {1300, 2150, 2300, 2450, 4200},
        .p99_limit_ms = 15,
        .warmup_us = 1000 * 1000,
        .nominal_window_us = 20 * 1000 * 1000,
        .window_us = 3 * 1000 * 1000,
    },
};

// ---------------------------------------------------------------------
// Transaction plans: generated at arrival from the seed alone, so the
// inputs never depend on how fast the system under test runs.

struct Plan {
  uint64_t seq = 0;  // arrival number; also seeds the written payloads
  Kind kind = kPoint;
  int table = 0;
  std::vector<uint64_t> keys;  // point / rmw / bulk / insert / lite keys
  uint64_t start_row = 0;      // range / analytic
  uint64_t rows = 0;           // range count / analytic span
  uint64_t mod = 1;            // analytic predicate: row % mod == residue
  uint64_t residue = 0;
  int agg = 0;  // analytic: 0 COUNT (checked), 1 SUM, 2 projection
};

bool IsWrite(Kind k) {
  return k == kRmw || k == kBulk || k == kInsert || k == kLite;
}

// Rows r in [0, n) with r % mod == residue.
uint64_t CountModBelow(uint64_t n, uint64_t mod, uint64_t residue) {
  return n <= residue ? 0 : (n - residue - 1) / mod + 1;
}

// Payload written by plan `seq` to `key`: CDB-style random capital
// letters, reproducible from (seed, seq, key) so the read-back check need
// not keep every value.
std::string Payload(uint64_t seed, uint64_t seq, uint64_t key,
                    uint32_t len) {
  Random rng(seed ^ (seq * 0x9e3779b97f4a7c15ull) ^
             (key * 0xc2b2ae3d27d4eb4full));
  std::string out(len, '\0');
  for (uint32_t i = 0; i < len; i += 8) {
    uint64_t bits = rng.Next();
    for (uint32_t j = i; j < std::min(len, i + 8); j++) {
      out[j] = static_cast<char>('A' + (bits & 0xff) % 26);
      bits >>= 8;
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Spans (traced repetitions only).

enum SpanName : uint8_t {
  kSpanTxn,
  kSpanCpu,
  kSpanGet,
  kSpanScan,
  kSpanScanWhere,
  kSpanCommit,
  kNumSpanNames,
};
constexpr const char* kSpanNames[] = {"txn",         "compute.cpu",
                                      "engine.get",  "engine.scan",
                                      "engine.scan_where",
                                      "engine.commit"};

struct Span {
  uint64_t txn;
  int64_t parent;  // index into the span vector; -1 for a root
  SimTime start;
  SimTime end;
  SimTime service_us;  // compute.cpu: the CPU asked for (rest is queueing)
  SpanName name;
};

class Tracer {
 public:
  Tracer(sim::Simulator& sim, bool on) : sim_(sim), on_(on) {}
  bool on() const { return on_; }

  int64_t Open(SpanName name, uint64_t txn, int64_t parent,
               SimTime service_us = 0) {
    if (!on_) return -1;
    spans_.push_back(
        Span{txn, parent, sim_.now(), -1, service_us, name});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t idx) {
    if (idx >= 0) spans_[idx].end = sim_.now();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  sim::Simulator& sim_;
  bool on_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Counters read from the components' public accessors; the benchmark
// reports deltas across the nominal rung's window.

struct Counters {
  SimTime now = 0;
  uint64_t events = 0;
  SimTime compute_busy_us = 0;
  std::vector<SimTime> ps_busy_us;
  engine::BufferPoolStats pool;
  engine::EngineStats eng;
  uint64_t remote_fetches = 0;
  uint64_t rbio_frames = 0;
  uint64_t rbio_retries = 0;
  uint64_t rbio_batches = 0;
  uint64_t rbio_batched_pages = 0;
  uint64_t rbio_wire_bytes = 0;
  uint64_t ps_scans_rejected = 0;
  uint64_t ps_scan_rows = 0;
  uint64_t ps_scan_pages = 0;
  uint64_t ps_scan_tuples = 0;
  uint64_t ps_checkpoint_pages = 0;
  uint64_t xlog_blocks = 0;
  uint64_t xlog_lz_stalls = 0;
  uint64_t xlog_wire_bytes = 0;
  uint64_t xlog_pulls = 0;
  uint64_t xlog_pulls_lz = 0;
  uint64_t lz_stored_bytes = 0;
  uint64_t xstore_writes = 0;
  uint64_t xstore_write_bytes = 0;
};

Counters ReadCounters(sim::Simulator& sim, service::Deployment& d) {
  Counters c;
  c.now = sim.now();
  c.events = sim.events_executed();
  compute::ComputeNode* p = d.primary();
  c.compute_busy_us = p->cpu().busy_micros();
  c.pool = p->pool()->stats();
  c.eng = p->engine()->stats();
  c.remote_fetches = p->remote_fetches();
  rbio::RbioClient& rb = p->rbio_client();
  c.rbio_frames = rb.requests_sent();
  c.rbio_retries = rb.retries();
  c.rbio_batches = rb.batches_sent();
  c.rbio_batched_pages = rb.batched_pages();
  c.rbio_wire_bytes = rb.wire_bytes_sent() + rb.wire_bytes_received();
  for (int i = 0; i < d.num_page_servers(); i++) {
    pageserver::PageServer* ps = d.page_server(i);
    c.ps_busy_us.push_back(ps->cpu().busy_micros());
    c.ps_scans_rejected += ps->scans_rejected();
    c.ps_scan_rows += ps->scan_rows_scanned();
    c.ps_scan_pages += ps->scan_pages_scanned();
    c.ps_scan_tuples += ps->scan_tuples_returned();
    c.ps_checkpoint_pages += ps->checkpoint_pages_written();
  }
  xlog::XLogClient& lc = d.log_client();
  c.xlog_blocks = lc.blocks_written();
  c.xlog_lz_stalls = lc.lz_stalls();
  c.xlog_wire_bytes = lc.wire_bytes_sent();
  xlog::XLogProcess& xp = d.xlog();
  c.xlog_pulls_lz = xp.pulls_from_lz();
  c.xlog_pulls = xp.pulls_from_seq_map() + xp.pulls_from_ssd() +
                 xp.pulls_from_lz() + xp.pulls_from_lt() +
                 xp.pulls_from_shard();
  c.lz_stored_bytes = d.landing_zone().stored_bytes_written();
  c.xstore_writes = d.xstore().stats().writes;
  c.xstore_write_bytes = d.xstore().stats().bytes_written;
  return c;
}

// The components keep these latency histograms cumulatively and expose
// them read-only. A traced repetition clears them at the start of the
// nominal window so their percentiles cover that window alone. Nothing
// in the program reads them back, which the traced-vs-untraced equality
// check (same trace hash, same event count) confirms on every run.
void ClearLayerHistograms(service::Deployment& d) {
  auto clear = [](const Histogram& h) { const_cast<Histogram&>(h).Clear(); };
  clear(d.primary()->remote_fetch_us());
  for (int i = 0; i < d.num_page_servers(); i++) {
    pageserver::PageServer* ps = d.page_server(i);
    clear(ps->getpage_service_us());
    clear(ps->freshness_wait_us());
    clear(ps->scan_queue_wait_us());
    clear(ps->checkpoint_duration_us());
  }
  xlog::XLogClient& lc = d.log_client();
  clear(lc.enqueue_phase());
  clear(lc.quorum_phase());
  clear(lc.visible_phase());
}

// ---------------------------------------------------------------------
// Output: a flat JSON object built in insertion order.

class JsonObj {
 public:
  void Num(const std::string& k, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      snprintf(buf, sizeof(buf), "null");
    }
    Raw(k, buf);
  }
  void Int(const std::string& k, uint64_t v) { Raw(k, std::to_string(v)); }
  void Str(const std::string& k, const std::string& v) {
    Raw(k, "\"" + v + "\"");
  }
  void Raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + v;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// Nearest-rank percentile of an ascending vector; 0 when empty.
double Pct(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

// Percentile with its sample count (`<name>` and `<name>.n`).
void PutPct(JsonObj* o, const std::string& name, std::vector<double> v,
            double p, double scale = 1.0) {
  std::sort(v.begin(), v.end());
  o->Num(name, Pct(v, p) * scale);
  o->Int(name + ".n", v.size());
}

// Ratio with its numerator and denominator; 0 when the base is empty.
void PutRatio(JsonObj* o, const std::string& name, double num, double den) {
  o->Num(name, den > 0 ? num / den : 0.0);
  o->Num(name + ".num", num);
  o->Num(name + ".den", den);
}

void PutHist(JsonObj* o, const std::string& name, const Histogram& h,
             double p) {
  o->Num(name, h.count() > 0 ? h.Percentile(p) : 0.0);
  o->Int(name + ".n", h.count());
}

sim::Task<> SetWhenDone(sim::Task<> inner, bool* done) {
  co_await std::move(inner);
  *done = true;
}

// Run events until `task` finishes. Service loops keep scheduling timers
// forever, so Simulator::Run would never return.
void RunUntilDone(sim::Simulator& sim, sim::Task<> task) {
  bool done = false;
  sim::Spawn(sim, SetWhenDone(std::move(task), &done));
  while (!done && sim.Step()) {
  }
  if (!done) {
    fprintf(stderr, "socbench: simulation stalled\n");
    exit(3);
  }
}

// ---------------------------------------------------------------------
// The rig: one deployment, one open-loop ladder, one verification pass.

struct TxnRecord {
  SimTime due = 0;
  SimTime end = -1;
  int rung = -1;  // -1 = warm-up
  Kind kind = kPoint;
  bool committed = false;
  bool aborted = false;  // write-write conflict
};

struct LastWrite {
  Timestamp read_ts = 0;
  uint64_t seq = 0;  // plan that wrote the value
};

struct RungResult {
  double offered_tps = 0;
  SimTime start = 0;
  // Completions are counted from here: the start, or on the overload rung
  // the moment every worker is first busy, so the ramp-up from an idle
  // system does not count against capacity.
  SimTime count_from = 0;
  SimTime end = 0;
  uint64_t arrivals = 0;
  uint64_t backlog_at_end = 0;
};

class Rig {
 public:
  Rig(const Spec& spec, uint64_t seed, bool traced)
      : spec_(spec),
        seed_(seed),
        tracer_(sim_, traced),
        inflight_(sim_),
        workers_(sim_, kWorkers),
        arrival_rng_(seed * 0x2545f4914f6cdd1dull + 1) {
    sim_.EnableTraceHash();
    workload::CdbOptions copts;
    copts.scale_factor = spec.scale;
    copts.cpu_scale = kCpuScale;
    cdb_ = std::make_unique<workload::CdbWorkload>(
        copts, workload::CdbMix::Default());
    for (int t = 0; t < kTables; t++) {
      table_rows_[t] = cdb_->TableRows(t);
      payload_bytes_[t] = copts.payload_bytes[t];
    }
  }

  ~Rig() {
    if (deployment_) deployment_->Stop();
  }

  void Setup();
  void Measure();
  void Verify();
  JsonObj Report(double setup_s, double wall_s) const;
  JsonObj LayerReport() const;
  void WriteSpans(const std::string& path) const;

  bool correct() const { return ErrorCount() == 0; }
  uint64_t Attempted() const { return records_.size(); }
  uint64_t ErrorCount() const {
    uint64_t n = 0;
    for (const auto& [what, count] : errors_) n += count;
    return n;
  }

 private:
  uint64_t ProbeLoadedPages();
  sim::Task<> SetupTask();
  sim::Task<> LadderTask();
  sim::Task<> IssueRung(double rate, SimTime duration, int rung);
  sim::Task<> RunTxn(Plan plan);
  sim::Task<> Charge(double us, uint64_t txn, int64_t parent);
  sim::Task<> VerifyTask();
  Plan MakePlan();
  void Fail(const std::string& what) { errors_[what]++; }
  void CheckCoverage(const char* when);

  const Spec& spec_;
  uint64_t seed_;
  sim::Simulator sim_;
  Tracer tracer_;
  sim::WaitGroup inflight_;
  sim::Semaphore workers_;
  Random arrival_rng_;
  std::unique_ptr<workload::CdbWorkload> cdb_;
  std::unique_ptr<service::Deployment> deployment_;
  engine::Engine* engine_ = nullptr;
  sim::CpuResource* cpu_ = nullptr;
  std::array<uint64_t, kTables> table_rows_{};
  std::array<uint32_t, kTables> payload_bytes_{};
  std::array<uint64_t, kTables> insert_cursor_{};
  int executing_ = 0;  // transactions holding a worker
  bool watch_saturation_ = false;
  SimTime saturated_at_ = -1;
  uint64_t next_seq_ = 0;
  uint64_t loaded_pages_ = 0;
  uint64_t pages_per_partition_ = 0;
  size_t compute_mem_pages_ = 0;
  size_t compute_ssd_pages_ = 0;
  size_t ps_mem_pages_ = 0;

  std::vector<TxnRecord> records_;
  std::vector<RungResult> rungs_;
  std::unordered_map<uint64_t, LastWrite> last_write_;
  std::map<std::string, uint64_t> errors_;  // by Status code or check
  uint64_t acked_payload_bytes_ = 0;
  uint64_t scan_counts_checked_ = 0;
  uint64_t rows_verified_ = 0;

  Counters measure_begin_, measure_end_;
  Counters nominal_begin_, nominal_end_;
  // Layer histograms snapshotted at the end of the nominal window.
  Histogram remote_fetch_us_, getpage_service_us_, freshness_wait_us_,
      scan_queue_wait_us_, checkpoint_us_, enqueue_us_, quorum_us_,
      visible_us_;
};

// A sink that hardens every record at once and keeps nothing: the page
// count probe needs the B-tree's allocation, not the log.
class DiscardSink : public engine::LogSink {
 public:
  explicit DiscardSink(sim::Simulator& sim) : sim_(sim) {}
  Lsn Append(const engine::LogRecord& rec) override {
    Lsn lsn = end_;
    end_ += rec.Encode().size();
    return lsn;
  }
  Lsn end_lsn() const override { return end_; }
  Lsn hardened_lsn() const override { return end_; }
  // Suspends once per commit, as a real sink does; otherwise the whole
  // load runs as one resume chain, whose stack depth stays bounded only
  // where the compiler turns symmetric transfer into tail calls.
  sim::Task<Status> WaitHardened(Lsn lsn) override {
    (void)lsn;
    co_await sim::Yield(sim_);
    co_return Status::OK();
  }

 private:
  sim::Simulator& sim_;
  Lsn end_ = engine::kLogStreamStart;
};

// Pages the CDB load allocates, from a load into a standalone engine
// whose pool holds everything.
uint64_t Rig::ProbeLoadedPages() {
  sim::Simulator sim;
  DiscardSink sink(sim);
  engine::BufferPoolOptions bo;
  bo.mem_pages = size_t{1} << 30;
  engine::BufferPool pool(sim, bo, nullptr);
  engine::Engine eng(sim, &pool, &sink);
  Status status;
  auto load = [&]() -> sim::Task<> {
    status = co_await eng.Bootstrap();
    if (status.ok()) status = co_await cdb_->Load(&eng);
  };
  RunUntilDone(sim, load());
  if (!status.ok()) {
    fprintf(stderr, "socbench: page-count probe failed: %s\n",
            status.ToString().c_str());
    exit(3);
  }
  return eng.btree()->next_page_id();
}

void Rig::Setup() {
  loaded_pages_ = ProbeLoadedPages();
  pages_per_partition_ = static_cast<uint64_t>(
      std::ceil(static_cast<double>(loaded_pages_) * kPartitionSlack /
                kDataPageServers));

  service::DeploymentOptions d;
  d.lz_profile = spec_.xio_log ? sim::DeviceProfile::Xio()
                               : sim::DeviceProfile::DirectDrive();
  d.partition_map.pages_per_partition = pages_per_partition_;
  d.num_page_servers = kDataPageServers + 1;
  d.compute.cpu_cores = spec_.cores;
  compute_mem_pages_ = std::max<size_t>(
      16, static_cast<size_t>(spec_.mem_frac * loaded_pages_));
  compute_ssd_pages_ = static_cast<size_t>(spec_.ssd_frac * loaded_pages_);
  ps_mem_pages_ = std::max<size_t>(
      16, static_cast<size_t>(spec_.ps_mem_frac * pages_per_partition_));
  d.compute.mem_pages = compute_mem_pages_;
  d.compute.ssd_pages = compute_ssd_pages_;
  d.page_server.mem_pages = ps_mem_pages_;
  if (spec_.xio_log) {
    d.xlog_client.block_sizing = xlog::BlockSizing::kAdaptive;
    d.xlog_client.compress_blocks = true;
  }
  deployment_ = std::make_unique<service::Deployment>(sim_, d);
  RunUntilDone(sim_, SetupTask());
  engine_ = deployment_->primary_engine();
  cpu_ = &deployment_->primary()->cpu();
  if (engine_->btree()->next_page_id() != loaded_pages_) {
    Fail("check.page_probe");
  }
  CheckCoverage("setup");
}

sim::Task<> Rig::SetupTask() {
  Status s = co_await deployment_->Start();
  if (s.ok()) s = co_await cdb_->Load(deployment_->primary_engine());
  if (!s.ok()) {
    fprintf(stderr, "socbench: setup failed: %s\n", s.ToString().c_str());
    exit(3);
  }
  // Quiesce: every Page Server has applied the bulk-load log.
  for (int p = 0; p < deployment_->num_page_servers(); p++) {
    co_await deployment_->page_server(p)->applied_lsn().WaitFor(
        deployment_->log_client().end_lsn());
  }
}

// Every page allocated so far must fall in a partition some Page Server
// serves; otherwise reads of it fail Unavailable (fast), which would make
// latency look better.
void Rig::CheckCoverage(const char* when) {
  PageId last = engine_->btree()->next_page_id() - 1;
  PartitionId last_part = deployment_->partition_map().PartitionOf(last);
  for (PartitionId p = 0; p <= last_part; p++) {
    if (deployment_->ServingPageServer(p) == nullptr) {
      Fail(std::string("check.coverage_") + when);
      return;
    }
  }
}

Plan Rig::MakePlan() {
  Random& r = arrival_rng_;
  Plan p;
  p.seq = next_seq_++;
  double u = r.NextDouble();
  double acc = 0;
  p.kind = kPoint;
  for (int k = 0; k < kNumKinds; k++) {
    acc += spec_.mix[k];
    if (u < acc) {
      p.kind = static_cast<Kind>(k);
      break;
    }
  }
  p.table = static_cast<int>(r.Uniform(kTables));
  auto key = [&](int t) {
    return MakeKey(static_cast<TableId>(t + 1), r.Uniform(table_rows_[t]));
  };
  switch (p.kind) {
    case kPoint: {
      int n = 1 + static_cast<int>(r.Uniform(10));
      for (int i = 0; i < n; i++) {
        p.keys.push_back(key(static_cast<int>(r.Uniform(kTables))));
      }
      break;
    }
    case kRange:
      p.start_row = r.Uniform(table_rows_[p.table]);
      p.rows = 16 + r.Uniform(113);
      break;
    case kRmw: {
      int n = 1 + static_cast<int>(r.Uniform(4));
      for (int i = 0; i < n; i++) p.keys.push_back(key(p.table));
      break;
    }
    case kBulk: {
      uint64_t start = r.Uniform(table_rows_[p.table]);
      int n = 64 + static_cast<int>(r.Uniform(64));
      for (int i = 0; i < n; i++) {
        p.keys.push_back(MakeKey(static_cast<TableId>(p.table + 1),
                                 (start + i) % table_rows_[p.table]));
      }
      break;
    }
    case kInsert: {
      int n = 4 + static_cast<int>(r.Uniform(8));
      for (int i = 0; i < n; i++) {
        p.keys.push_back(
            MakeKey(static_cast<TableId>(p.table + 1),
                    table_rows_[p.table] + insert_cursor_[p.table]++));
      }
      break;
    }
    case kLite:
      p.keys.push_back(key(p.table));
      break;
    case kAnalytic: {
      uint64_t rows = table_rows_[p.table];
      p.rows = std::min<uint64_t>(rows, 512 + r.Uniform(1537));
      p.start_row = r.Uniform(rows - p.rows + 1);
      static constexpr uint64_t kMods[] = {8, 16, 64};
      p.mod = kMods[r.Uniform(3)];
      p.residue = r.Uniform(p.mod);
      p.agg = static_cast<int>(r.Uniform(3));
      break;
    }
    case kNumKinds:
      break;
  }
  return p;
}

sim::Task<> Rig::Charge(double us, uint64_t txn, int64_t parent) {
  SimTime service = static_cast<SimTime>(us * kCpuScale);
  int64_t span = tracer_.Open(kSpanCpu, txn, parent, service);
  co_await cpu_->Consume(service);
  tracer_.Close(span);
}

sim::Task<> Rig::RunTxn(Plan plan) {
  const uint64_t id = plan.seq;
  const int64_t root = tracer_.Open(kSpanTxn, id, -1);
  co_await workers_.Acquire();
  if (++executing_ == kWorkers && watch_saturation_) {
    watch_saturation_ = false;
    saturated_at_ = sim_.now();
  }
  Status st;
  co_await Charge(kTxnBaseUs, id, root);
  auto txn = engine_->Begin(!IsWrite(plan.kind));
  const TableId tid = static_cast<TableId>(plan.table + 1);

  auto get = [&](uint64_t key) -> sim::Task<Status> {
    int64_t s = tracer_.Open(kSpanGet, id, root);
    Result<std::string> r = co_await engine_->Get(txn.get(), key);
    tracer_.Close(s);
    co_return r.status();
  };

  switch (plan.kind) {
    case kPoint:
      for (uint64_t key : plan.keys) {
        co_await Charge(kPointReadUs, id, root);
        st = co_await get(key);
        if (!st.ok()) break;
      }
      break;
    case kRange: {
      co_await Charge(kScanRowUs * static_cast<double>(plan.rows), id, root);
      int64_t s = tracer_.Open(kSpanScan, id, root);
      auto r = co_await engine_->Scan(
          txn.get(), MakeKey(tid, plan.start_row), plan.rows);
      tracer_.Close(s);
      st = r.status();
      break;
    }
    case kRmw:
      for (uint64_t key : plan.keys) {
        co_await Charge(kPointReadUs + kUpdateRowUs, id, root);
        st = co_await get(key);
        if (!st.ok()) break;
        st = engine_->Put(txn.get(), key,
                          Payload(seed_, id, key,
                                  payload_bytes_[plan.table]));
        if (!st.ok()) break;
      }
      break;
    case kBulk:
    case kInsert:
    case kLite: {
      double per_row = plan.kind == kBulk     ? kUpdateRowUs * 0.6
                       : plan.kind == kInsert ? kInsertRowUs
                                              : kLiteUpdateUs;
      co_await Charge(per_row * static_cast<double>(plan.keys.size()), id,
                      root);
      for (uint64_t key : plan.keys) {
        st = engine_->Put(txn.get(), key,
                          Payload(seed_, id, key,
                                  payload_bytes_[plan.table]));
        if (!st.ok()) break;
      }
      break;
    }
    case kAnalytic: {
      engine::ScanFilter filter;
      filter.predicate =
          common::ScanPredicate::KeyModEq(plan.mod, plan.residue);
      if (plan.agg == 0) {
        filter.aggregate = common::ScanAggregate::Count();
      } else if (plan.agg == 1) {
        filter.aggregate = common::ScanAggregate::Sum(0);
      } else {
        filter.projection.extents.push_back({0, 32});
      }
      co_await Charge(kAnalyticRowUs * static_cast<double>(plan.rows) * 0.1,
                      id, root);
      int64_t s = tracer_.Open(kSpanScanWhere, id, root);
      auto r = co_await engine_->ScanWhere(
          txn.get(), MakeKey(tid, plan.start_row),
          MakeKey(tid, plan.start_row + plan.rows), /*limit=*/0, filter);
      tracer_.Close(s);
      st = r.status();
      if (st.ok() && plan.agg == 0) {
        // Analytic ranges lie inside the loaded rows, which no
        // transaction deletes, so the count is exact at any snapshot.
        uint64_t want =
            CountModBelow(plan.start_row + plan.rows, plan.mod,
                          plan.residue) -
            CountModBelow(plan.start_row, plan.mod, plan.residue);
        scan_counts_checked_++;
        if (r->agg.rows != want) Fail("check.scan_count");
      }
      break;
    }
    case kNumKinds:
      break;
  }

  bool committed = false;
  if (st.ok()) {
    int64_t s = tracer_.Open(kSpanCommit, id, root);
    st = co_await engine_->Commit(txn.get());
    tracer_.Close(s);
    committed = st.ok();
  } else {
    engine_->Abort(txn.get());
  }
  // records_ grows while this transaction is suspended: index it only
  // after the last co_await.
  TxnRecord& out = records_[id];
  out.committed = committed;
  out.aborted = st.IsAborted();
  if (!st.ok() && !out.aborted) {
    std::string code = st.ToString();
    Fail(code.substr(0, code.find(':')));
  }
  if (committed && IsWrite(plan.kind)) {
    for (uint64_t key : plan.keys) {
      // Successful writers of one key are never concurrent under
      // first-committer-wins, so the later one has the larger snapshot.
      LastWrite w{txn->read_ts(), id};
      auto [it, fresh] = last_write_.try_emplace(key, w);
      if (!fresh && it->second.seq == id) continue;  // repeated in this txn
      if (!fresh && w.read_ts > it->second.read_ts) it->second = w;
      acked_payload_bytes_ += payload_bytes_[plan.table];
    }
  }
  out.end = sim_.now();
  tracer_.Close(root);
  executing_--;
  workers_.Release();
  inflight_.Done();
}

sim::Task<> Rig::IssueRung(double rate, SimTime duration, int rung) {
  const SimTime start = sim_.now();
  const SimTime end = start + duration;
  double t = static_cast<double>(start);
  while (true) {
    t += -std::log(1.0 - arrival_rng_.NextDouble()) * 1e6 / rate;
    SimTime due = static_cast<SimTime>(t);
    if (due >= end) break;
    if (due > sim_.now()) co_await sim::Delay(sim_, due - sim_.now());
    Plan plan = MakePlan();  // plan.seq indexes records_
    records_.push_back(TxnRecord{sim_.now(), -1, rung, plan.kind});
    inflight_.Add();
    sim::Spawn(sim_, RunTxn(std::move(plan)));
  }
  if (end > sim_.now()) co_await sim::Delay(sim_, end - sim_.now());
}

sim::Task<> Rig::LadderTask() {
  auto drain = [this]() -> sim::Task<> {
    if (inflight_.count() > 0) co_await inflight_.Wait();
  };
  co_await IssueRung(spec_.ladder[kNominalRung], spec_.warmup_us, -1);
  co_await drain();
  for (size_t i = 0; i < spec_.ladder.size(); i++) {
    RungResult rr;
    rr.offered_tps = spec_.ladder[i];
    rr.start = sim_.now();
    size_t first = records_.size();
    const bool nominal = i == kNominalRung;
    if (nominal) {
      if (tracer_.on()) ClearLayerHistograms(*deployment_);
      nominal_begin_ = ReadCounters(sim_, *deployment_);
    }
    const bool overload = i + 1 == spec_.ladder.size();
    const SimTime window =
        nominal    ? spec_.nominal_window_us
        : overload ? spec_.window_us / kOverloadWindowDivisor
                   : spec_.window_us;
    watch_saturation_ = overload;
    co_await IssueRung(spec_.ladder[i], window, static_cast<int>(i));
    rr.count_from = overload && saturated_at_ >= 0 ? saturated_at_ : rr.start;
    rr.end = sim_.now();
    rr.arrivals = records_.size() - first;
    rr.backlog_at_end = static_cast<uint64_t>(inflight_.count());
    if (nominal) {
      nominal_end_ = ReadCounters(sim_, *deployment_);
      service::Deployment& d = *deployment_;
      remote_fetch_us_ = d.primary()->remote_fetch_us();
      for (int p = 0; p < d.num_page_servers(); p++) {
        getpage_service_us_.Merge(d.page_server(p)->getpage_service_us());
        freshness_wait_us_.Merge(d.page_server(p)->freshness_wait_us());
        scan_queue_wait_us_.Merge(d.page_server(p)->scan_queue_wait_us());
        checkpoint_us_.Merge(d.page_server(p)->checkpoint_duration_us());
      }
      enqueue_us_ = d.log_client().enqueue_phase();
      quorum_us_ = d.log_client().quorum_phase();
      visible_us_ = d.log_client().visible_phase();
    }
    rungs_.push_back(rr);
    co_await drain();
  }
}

void Rig::Measure() {
  measure_begin_ = ReadCounters(sim_, *deployment_);
  RunUntilDone(sim_, LadderTask());
  measure_end_ = ReadCounters(sim_, *deployment_);
}

// Quiescent read-back: scan every table in full; each key an
// acknowledged commit wrote must hold that commit's value, every row
// above the loaded range must be an acknowledged insert, and each
// table's row count (by scan and by COUNT aggregate) must equal loaded
// rows plus acknowledged inserts.
sim::Task<> Rig::VerifyTask() {
  constexpr size_t kChunk = 1024;
  std::array<uint64_t, kTables> inserted{};
  for (int t = 0; t < kTables; t++) {
    for (uint64_t r = table_rows_[t];
         r < table_rows_[t] + insert_cursor_[t]; r++) {
      if (last_write_.count(MakeKey(static_cast<TableId>(t + 1), r))) {
        inserted[t]++;
      }
    }
  }
  for (int t = 0; t < kTables; t++) {
    const TableId tid = static_cast<TableId>(t + 1);
    const uint64_t want_rows = table_rows_[t] + inserted[t];
    uint64_t seen = 0;
    uint64_t cursor = MakeKey(tid, 0);
    bool more = true;
    while (more) {
      auto txn = engine_->Begin(true);
      auto r = co_await engine_->Scan(txn.get(), cursor, kChunk);
      (void)co_await engine_->Commit(txn.get());
      if (!r.ok()) {
        Fail("check.readback_scan");
        co_return;
      }
      more = r->size() == kChunk;
      for (const auto& [key, value] : *r) {
        if (engine::KeyTable(key) != tid) {
          more = false;
          break;
        }
        seen++;
        cursor = key + 1;
        auto it = last_write_.find(key);
        if (it == last_write_.end()) {
          if (engine::KeyRow(key) >= table_rows_[t]) {
            Fail("check.readback_unacked_insert");
          }
          continue;
        }
        rows_verified_++;
        if (value != Payload(seed_, it->second.seq, key,
                             payload_bytes_[t])) {
          Fail("check.readback_value");
        }
      }
    }
    if (seen != want_rows) Fail("check.readback_rows");

    engine::ScanFilter count;
    count.predicate = common::ScanPredicate::KeyModEq(1, 0);
    count.aggregate = common::ScanAggregate::Count();
    auto txn = engine_->Begin(true);
    auto c = co_await engine_->ScanWhere(txn.get(), MakeKey(tid, 0),
                                         MakeKey(tid + 1, 0), 0, count);
    (void)co_await engine_->Commit(txn.get());
    scan_counts_checked_++;
    if (!c.ok() || c->agg.rows != want_rows) Fail("check.table_count");
  }
  // Keys written but never seen by the scan (a lost acknowledged write)
  // show up as a short row count above, or here for updated keys.
  if (rows_verified_ != last_write_.size()) Fail("check.readback_missing");
}

void Rig::Verify() {
  RunUntilDone(sim_, VerifyTask());
  CheckCoverage("end");
}

JsonObj Rig::Report(double setup_s, double wall_s) const {
  JsonObj o;
  o.Str("workload", spec_.name);
  o.Int("seed", seed_);
  o.Int("traced", tracer_.on() ? 1 : 0);
  char hash[32];
  snprintf(hash, sizeof(hash), "0x%016" PRIx64, sim_.trace_hash());
  o.Str("trace_hash", hash);
  o.Num("setup_s", setup_s);
  o.Num("wall_s", wall_s);
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  o.Num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  o.Int("attempted", Attempted());
  o.Int("failed", ErrorCount());

  // Simulated results: identical for every repetition of one seed.
  JsonObj s;
  s.Int("sim.loaded_pages", loaded_pages_);
  s.Int("sim.pages_per_partition", pages_per_partition_);
  s.Int("sim.end_pages", engine_->btree()->next_page_id());
  s.Int("sim.page_servers", deployment_->num_page_servers());
  s.Int("sim.compute_mem_pages", compute_mem_pages_);
  s.Int("sim.compute_ssd_pages", compute_ssd_pages_);
  s.Int("sim.ps_mem_pages", ps_mem_pages_);
  s.Int("sim.events", measure_end_.events - measure_begin_.events);
  s.Num("sim.measured_s",
        static_cast<double>(measure_end_.now - measure_begin_.now) / 1e6);

  // Per rung: latency of every transaction due in it (aborts included;
  // they are rare and counted in commit_frac), completions per second
  // inside its window, and whether it is sustained: txn p99 within the
  // limit and, at the window's end, no more transactions in flight than
  // rate x limit (no growing backlog).
  const double limit_us = spec_.p99_limit_ms * 1000.0;
  std::vector<double> p99s;
  int top_sustained = -1;
  double tps = 0;
  uint64_t done_in_window = 0;
  std::string rung_list;
  for (size_t i = 0; i < rungs_.size(); i++) {
    const RungResult& rr = rungs_[i];
    std::vector<double> lat;
    done_in_window = 0;
    for (const TxnRecord& t : records_) {
      if (t.committed && t.end >= rr.count_from && t.end < rr.end) {
        done_in_window++;
      }
      if (t.rung == static_cast<int>(i)) {
        lat.push_back(static_cast<double>(t.end - t.due));
      }
    }
    std::sort(lat.begin(), lat.end());
    const double p99 = Pct(lat, 99);
    p99s.push_back(p99);
    tps = static_cast<double>(done_in_window) /
          (static_cast<double>(rr.end - rr.count_from) / 1e6);
    const bool sustained =
        p99 <= limit_us &&
        static_cast<double>(rr.backlog_at_end) <=
            rr.offered_tps * spec_.p99_limit_ms / 1000.0;
    if (sustained) top_sustained = static_cast<int>(i);
    JsonObj r;
    r.Num("offered_tps", rr.offered_tps);
    r.Int("arrivals", rr.arrivals);
    r.Num("completed_tps", tps);
    r.Num("counted_s", static_cast<double>(rr.end - rr.count_from) / 1e6);
    r.Num("p50_ms", Pct(lat, 50) / 1000.0);
    r.Num("p99_ms", p99 / 1000.0);
    r.Int("n", lat.size());
    r.Int("backlog_at_end", rr.backlog_at_end);
    r.Int("sustained", sustained ? 1 : 0);
    if (!rung_list.empty()) rung_list += ", ";
    rung_list += r.str();
  }
  // goodput: the offered rate at which txn p99 reaches the limit,
  // interpolated on log p99 between the highest sustained rung and the
  // rung above it. The rungs above the nominal one sit below capacity,
  // close together, so the crossing moves with any change to capacity or
  // to the latency curve near it, not in steps of the rung spacing.
  double goodput = 0;
  if (top_sustained >= 0) {
    const size_t lo = static_cast<size_t>(top_sustained);
    goodput = spec_.ladder[lo];
    if (lo + 1 < rungs_.size() && p99s[lo + 1] > limit_us && p99s[lo] > 0) {
      const double frac = std::log(limit_us / p99s[lo]) /
                          std::log(p99s[lo + 1] / p99s[lo]);
      goodput += frac * (spec_.ladder[lo + 1] - spec_.ladder[lo]);
    }
  }
  s.Num("goodput_tps", goodput);
  s.Num("goodput_below_tps",
        top_sustained >= 0 ? spec_.ladder[top_sustained] : 0.0);
  // The loop ends on the overload rung.
  s.Num("peak_tps", tps);
  s.Int("peak_tps.n", done_in_window);

  std::vector<double> all, reads, writes;
  uint64_t write_attempts = 0, write_commits = 0, aborts = 0;
  for (const TxnRecord& t : records_) {
    if (t.rung != kNominalRung) continue;
    if (IsWrite(t.kind)) write_attempts++;
    if (t.aborted) aborts++;
    if (!t.committed) continue;
    double lat = static_cast<double>(t.end - t.due);
    all.push_back(lat);
    (IsWrite(t.kind) ? writes : reads).push_back(lat);
    if (IsWrite(t.kind)) write_commits++;
  }
  PutPct(&s, "txn_p50_ms", all, 50, 1e-3);
  PutPct(&s, "txn_p99_ms", all, 99, 1e-3);
  PutPct(&s, "read_p99_ms", reads, 99, 1e-3);
  PutPct(&s, "write_p99_ms", writes, 99, 1e-3);
  PutRatio(&s, "commit_frac", static_cast<double>(write_commits),
           static_cast<double>(write_attempts));
  PutRatio(&s, "abort_frac", static_cast<double>(aborts),
           static_cast<double>(write_attempts));
  PutRatio(&s, "error_frac", static_cast<double>(ErrorCount()),
           static_cast<double>(Attempted()));
  PutRatio(&s, "log_bytes_per_user_byte",
           static_cast<double>(measure_end_.lz_stored_bytes -
                               measure_begin_.lz_stored_bytes),
           static_cast<double>(acked_payload_bytes_));
  s.Int("check.scan_counts", scan_counts_checked_);
  s.Int("check.rows_verified", rows_verified_);
  o.Raw("sim", s.str());
  o.Raw("rungs", "[" + rung_list + "]");

  JsonObj e;
  for (const auto& [what, count] : errors_) e.Int(what, count);
  o.Raw("errors", e.str());

  if (tracer_.on()) o.Raw("layer", LayerReport().str());
  return o;
}

JsonObj Rig::LayerReport() const {
  const Counters& a = nominal_begin_;
  const Counters& b = nominal_end_;
  const double window_us = static_cast<double>(b.now - a.now);
  uint64_t txns = 0;  // transactions finishing inside the nominal window
  for (const TxnRecord& t : records_) {
    if (t.end >= a.now && t.end < b.now) txns++;
  }
  const double n = static_cast<double>(txns);
  auto d = [](uint64_t hi, uint64_t lo) {
    return static_cast<double>(hi - lo);
  };
  JsonObj o;
  o.Int("layer.window_txns", txns);

  // Spans of transactions due in the nominal rung.
  std::array<std::vector<double>, kNumSpanNames> dur;
  std::vector<double> cpu_wait, write_commit;
  std::array<double, kNumSpanNames> self{};
  const std::vector<Span>& spans = tracer_.spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_us[s.parent] += static_cast<double>(s.end - s.start);
  }
  uint64_t nominal_txns = 0;
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    if (records_[s.txn].rung != kNominalRung) continue;
    double us = static_cast<double>(s.end - s.start);
    dur[s.name].push_back(us);
    self[s.name] += us - child_us[i];
    if (s.name == kSpanCpu) {
      cpu_wait.push_back(static_cast<double>(s.end - s.start - s.service_us));
    }
    // Read-only commits log nothing and take no time; the commit path
    // is the write transactions'.
    if (s.name == kSpanCommit && IsWrite(records_[s.txn].kind)) {
      write_commit.push_back(us);
    }
    if (s.name == kSpanTxn) nominal_txns++;
  }

  PutRatio(&o, "compute.cpu_util", d(b.compute_busy_us, a.compute_busy_us),
           window_us * spec_.cores);
  PutPct(&o, "compute.cpu_wait_p99_us", cpu_wait, 99);
  PutPct(&o, "engine.get_p99_us", dur[kSpanGet], 99);
  PutPct(&o, "engine.scan_p99_us", dur[kSpanScan], 99);
  PutPct(&o, "engine.scan_where_p99_us", dur[kSpanScanWhere], 99);
  PutPct(&o, "engine.commit_p50_us", write_commit, 50);
  PutPct(&o, "engine.commit_p99_us", write_commit, 99);
  PutRatio(&o, "engine.pool_local_hit_frac",
           d(b.pool.mem_hits + b.pool.ssd_hits, a.pool.mem_hits + a.pool.ssd_hits),
           d(b.pool.accesses(), a.pool.accesses()));
  PutRatio(&o, "engine.pool_leaf_hit_frac", d(b.pool.leaf_hits, a.pool.leaf_hits),
           d(b.pool.leaf_hits + b.pool.leaf_misses,
             a.pool.leaf_hits + a.pool.leaf_misses));
  PutRatio(&o, "engine.pool_evictions_per_txn",
           d(b.pool.mem_evictions + b.pool.ssd_evictions,
             a.pool.mem_evictions + a.pool.ssd_evictions),
           n);
  PutRatio(&o, "engine.pool_prefetch_useful_frac",
           d(b.pool.prefetch_hits, a.pool.prefetch_hits),
           d(b.pool.prefetch_issued, a.pool.prefetch_issued));
  PutRatio(&o, "engine.pushdown_frac",
           d(b.eng.pushdown_scans, a.eng.pushdown_scans),
           d(b.eng.filtered_scans, a.eng.filtered_scans));

  PutHist(&o, "compute.remote_fetch_p50_us", remote_fetch_us_, 50);
  PutHist(&o, "compute.remote_fetch_p99_us", remote_fetch_us_, 99);
  PutRatio(&o, "compute.remote_fetches_per_txn",
           d(b.remote_fetches, a.remote_fetches), n);
  PutRatio(&o, "rbio.frames_per_txn", d(b.rbio_frames, a.rbio_frames), n);
  PutRatio(&o, "rbio.batch_occupancy_mean",
           d(b.rbio_batched_pages, a.rbio_batched_pages),
           d(b.rbio_batches, a.rbio_batches));
  PutRatio(&o, "rbio.wire_kb_per_txn",
           d(b.rbio_wire_bytes, a.rbio_wire_bytes) / 1024.0, n);
  o.Num("rbio.retries", d(b.rbio_retries, a.rbio_retries));

  PutHist(&o, "pageserver.getpage_service_p99_us", getpage_service_us_, 99);
  PutHist(&o, "pageserver.freshness_wait_p99_us", freshness_wait_us_, 99);
  double ps_util_max = 0;
  for (size_t i = 0; i < b.ps_busy_us.size(); i++) {
    ps_util_max = std::max(
        ps_util_max,
        static_cast<double>(b.ps_busy_us[i] - a.ps_busy_us[i]) /
            (window_us * deployment_->page_server(static_cast<int>(i))->cpu().cores()));
  }
  o.Num("pageserver.cpu_util_max", ps_util_max);
  PutHist(&o, "pageserver.scan_queue_wait_p99_us", scan_queue_wait_us_, 99);
  o.Num("pageserver.scans_rejected", d(b.ps_scans_rejected, a.ps_scans_rejected));
  // Leaf pages read anywhere: compute buffer-pool leaf accesses plus
  // leaves a Page Server evaluated for a pushed-down scan. The share a
  // Page Server served is its GetPage misses plus its scan pages.
  const double leaf_misses = d(b.pool.leaf_misses, a.pool.leaf_misses);
  const double ps_pages = d(b.ps_scan_pages, a.ps_scan_pages);
  PutRatio(&o, "pageserver.leaf_read_share", leaf_misses + ps_pages,
           d(b.pool.leaf_hits, a.pool.leaf_hits) + leaf_misses + ps_pages);
  PutRatio(&o, "pageserver.scan_rows_per_tuple",
           d(b.ps_scan_rows, a.ps_scan_rows),
           d(b.ps_scan_tuples, a.ps_scan_tuples));
  o.Num("pageserver.checkpoint_pages_written",
        d(b.ps_checkpoint_pages, a.ps_checkpoint_pages));
  PutHist(&o, "pageserver.checkpoint_duration_p99_us", checkpoint_us_, 99);

  PutHist(&o, "xlog.enqueue_p99_us", enqueue_us_, 99);
  PutHist(&o, "xlog.quorum_p50_us", quorum_us_, 50);
  PutHist(&o, "xlog.quorum_p99_us", quorum_us_, 99);
  PutHist(&o, "xlog.visible_p99_us", visible_us_, 99);
  const double write_commits = d(b.eng.commits, a.eng.commits);
  PutRatio(&o, "xlog.commits_per_block", write_commits,
           d(b.xlog_blocks, a.xlog_blocks));
  o.Num("xlog.lz_stalls", d(b.xlog_lz_stalls, a.xlog_lz_stalls));
  PutRatio(&o, "xlog.pulls_from_lz_frac", d(b.xlog_pulls_lz, a.xlog_pulls_lz),
           d(b.xlog_pulls, a.xlog_pulls));
  PutRatio(&o, "xlog.wire_bytes_per_txn",
           d(b.xlog_wire_bytes, a.xlog_wire_bytes), write_commits);
  o.Num("xstore.write_bytes", d(b.xstore_write_bytes, a.xstore_write_bytes));
  o.Num("xstore.writes", d(b.xstore_writes, a.xstore_writes));

  for (int k = 0; k < kNumSpanNames; k++) {
    PutRatio(&o, std::string("span.") + kSpanNames[k] + ".self_us_per_txn",
             self[k], static_cast<double>(nominal_txns));
  }
  return o;
}

void Rig::WriteSpans(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "socbench: cannot write %s\n", path.c_str());
    return;
  }
  fprintf(f, "txn\tname\tparent\tstart_us\tend_us\tservice_us\n");
  for (const Span& s : tracer_.spans()) {
    fprintf(f, "%" PRIu64 "\t%s\t%" PRId64 "\t%" PRId64 "\t%" PRId64
               "\t%" PRId64 "\n",
            s.txn, kSpanNames[s.name], s.parent, s.start, s.end,
            s.service_us);
  }
  fclose(f);
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--traced") {
      traced = std::strcmp(argv[i + 1], "0") != 0;
    } else {
      fprintf(stderr, "socbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    fprintf(stderr,
            "usage: socbench --workload oltp_cached|htap_remote|log_heavy "
            "--seed N [--traced 0|1]\n");
    return 2;
  }

  Rig rig(*spec, seed, traced);
  auto t0 = std::chrono::steady_clock::now();
  rig.Setup();
  double setup_s = Seconds(t0);
  auto t1 = std::chrono::steady_clock::now();
  rig.Measure();
  double wall_s = Seconds(t1);
  rig.Verify();
  printf("%s\n", rig.Report(setup_s, wall_s).str().c_str());
  fflush(stdout);
  if (traced) {
    // Next to the binary, i.e. in the benchmark's build directory.
    rig.WriteSpans((std::filesystem::path(argv[0]).parent_path() /
                    ("spans-" + workload + ".tsv"))
                       .string());
  }
  return rig.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace socrates

int main(int argc, char** argv) {
  return socrates::perfbench::Main(argc, argv);
}
