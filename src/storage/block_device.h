// BlockDevice: the byte-addressable async storage abstraction under every
// tier (the analogue of SQL Server's FCB I/O virtualization layer, §3.6).
// SimBlockDevice models one device with a latency profile and optional
// outage injection; ReplicatedBlockDevice adds N-way replication with
// write quorum K — the shape of the XIO landing zone and of XStore.
//
// SimBlockDevice stores its bytes as 8 KiB refcounted storage::Page
// frames, one per page-aligned slot. Besides the byte Read/Write every
// BlockDevice offers, it has a page-granular path for the RBPEX SSD tier:
// WritePage keeps the caller's frame and ReadPage hands back a Page that
// shares the stored frame, so a page round trip copies nothing. A byte
// Write into a frame that an outstanding Page still shares detaches the
// frame first (copy-on-write), so that Page keeps its snapshot — anything
// that corrupts stored bytes on purpose (bit-rot injection) must go
// through that byte path, never through a Page's frame.
//
// Trim(offset, len) is the device's discard: it frees every whole slot
// inside the range (partly covered boundary slots keep their bytes), and
// trimmed slots read as zeros. It is synchronous and free — no latency
// draw, no stats, no outage check — so a caller that trims space it has
// already released changes nothing the simulation can observe. A Page
// still held from ReadPage keeps its frame (frames are refcounted).

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chaos/chaos.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/page.h"

namespace socrates {
namespace storage {

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Read `len` bytes at `offset` into `*out` (replacing its contents).
  /// Unwritten ranges read as zero bytes.
  virtual sim::Task<Status> Read(uint64_t offset, uint64_t len,
                                 std::string* out) = 0;

  /// Write `data` at `offset`.
  virtual sim::Task<Status> Write(uint64_t offset, Slice data) = 0;

  /// CPU microseconds the issuing node burns per request on this device
  /// (REST marshalling vs. cheap RDMA path; see DeviceProfile).
  virtual SimTime cpu_per_io_us() const = 0;

  virtual const CounterStats& stats() const = 0;
};

/// In-memory device with modelled latency. Storage is a sparse map of
/// 8 KiB page frames, so multi-GiB address spaces cost only what is
/// actually written.
class SimBlockDevice : public BlockDevice {
 public:
  SimBlockDevice(sim::Simulator& sim, sim::DeviceProfile profile,
                 uint64_t seed = 1)
      : sim_(sim), profile_(profile), rng_(seed) {}

  sim::Task<Status> Read(uint64_t offset, uint64_t len,
                         std::string* out) override {
    co_await sim::Delay(sim_, ReadDelayUs(len));
    if (chaos_port_.Out()) co_return Status::Unavailable("device outage");
    out->resize(len);
    ReadRaw(offset, len, out->data());
    stats_.reads++;
    stats_.bytes_read += len;
    co_return Status::OK();
  }

  sim::Task<Status> Write(uint64_t offset, Slice data) override {
    co_await sim::Delay(sim_, WriteDelayUs(data.size()));
    if (chaos_port_.Out()) co_return Status::Unavailable("device outage");
    WriteRaw(offset, data.data(), data.size());
    stats_.writes++;
    stats_.bytes_written += data.size();
    co_return Status::OK();
  }

  /// Read the page frame at page-aligned `offset` by reference: the
  /// returned Page shares the stored frame (no copy, checksum-current bit
  /// as stored). An unwritten slot reads as the all-zero page. Latency,
  /// outage and stats are exactly those of an 8 KiB Read.
  sim::Task<Result<Page>> ReadPage(uint64_t offset) {
    if (offset % kPageSize != 0) {
      co_return Result<Page>(
          Status::InvalidArgument("ReadPage: unaligned offset"));
    }
    co_await sim::Delay(sim_, ReadDelayUs(kPageSize));
    if (chaos_port_.Out()) {
      co_return Result<Page>(Status::Unavailable("device outage"));
    }
    stats_.reads++;
    stats_.bytes_read += kPageSize;
    auto it = frames_.find(offset / kPageSize);
    co_return it == frames_.end() ? Page() : it->second;
  }

  /// Store `page` at page-aligned `offset`, keeping its frame (no copy).
  /// The image is the one passed in: later mutation of the caller's Page
  /// detaches and leaves the stored frame alone. Latency, outage and
  /// stats are exactly those of an 8 KiB Write.
  sim::Task<Status> WritePage(uint64_t offset, Page page) {
    if (offset % kPageSize != 0) {
      co_return Status::InvalidArgument("WritePage: unaligned offset");
    }
    co_await sim::Delay(sim_, WriteDelayUs(kPageSize));
    if (chaos_port_.Out()) co_return Status::Unavailable("device outage");
    frames_[offset / kPageSize] = std::move(page);
    stats_.writes++;
    stats_.bytes_written += kPageSize;
    co_return Status::OK();
  }

  SimTime cpu_per_io_us() const override { return profile_.cpu_per_io_us; }
  const CounterStats& stats() const override { return stats_; }

  /// Outage injection: while unavailable, requests fail after their
  /// modelled latency with Status::Unavailable. (Shim over the chaos
  /// port's local state; deployment-wide outage windows arrive through
  /// AttachChaos instead.)
  void SetAvailable(bool available) { chaos_port_.SetOutage(!available); }
  bool available() const { return !chaos_port_.Out(); }

  /// Join a deployment-wide fault hub under `site` (e.g. every replica
  /// of the landing zone attaches as "lz", so one injector call opens a
  /// whole-service outage window).
  void AttachChaos(chaos::Injector* hub, const std::string& site) {
    chaos_port_.Attach(hub, site);
  }

  /// Synchronous backdoor used by tests and by crash-recovery assertions
  /// ("what is really on the media?"). Not part of the service data path.
  void ReadRaw(uint64_t offset, uint64_t len, char* out) const {
    uint64_t pos = 0;
    while (pos < len) {
      uint64_t abs = offset + pos;
      uint64_t within = abs % kPageSize;
      uint64_t n = std::min<uint64_t>(kPageSize - within, len - pos);
      auto it = frames_.find(abs / kPageSize);
      if (it != frames_.end()) {
        memcpy(out + pos, it->second.cdata() + within, n);
      } else {
        memset(out + pos, 0, n);
      }
      pos += n;
    }
  }

  /// Byte write into the stored frames. A frame still shared with a Page
  /// handed out by ReadPage (or kept by WritePage) is detached first, so
  /// that Page keeps its snapshot; a partial write into a new slot starts
  /// from zeros.
  void WriteRaw(uint64_t offset, const char* data, uint64_t len) {
    uint64_t pos = 0;
    while (pos < len) {
      uint64_t abs = offset + pos;
      uint64_t within = abs % kPageSize;
      uint64_t n = std::min<uint64_t>(kPageSize - within, len - pos);
      Page& frame = frames_[abs / kPageSize];
      if (n == kPageSize) {
        (void)frame.FromSlice(Slice(data + pos, kPageSize));
      } else {
        memcpy(frame.data() + within, data + pos, n);
      }
      pos += n;
    }
  }

  /// Discard the whole slots inside [offset, offset + len): their frames
  /// are released and the slots read as zeros. Slots the range covers
  /// only partly keep their bytes. Synchronous and free (see above).
  void Trim(uint64_t offset, uint64_t len) {
    const uint64_t last = (offset + len) / kPageSize;  // exclusive
    for (uint64_t slot = (offset + kPageSize - 1) / kPageSize; slot < last;
         slot++) {
      frames_.erase(slot);
    }
  }

  /// Bytes of backing memory actually allocated (for size-of-data checks).
  uint64_t allocated_bytes() const { return frames_.size() * kPageSize; }

 private:
  // Modelled latency of one request of `len` bytes. The page calls use
  // these too, so a page I/O draws exactly what an 8 KiB byte I/O does.
  SimTime ReadDelayUs(uint64_t len) {
    return profile_.read.Sample(rng_) + profile_.TransferUs(len) +
           chaos_port_.GrayDelayUs();
  }
  SimTime WriteDelayUs(uint64_t len) {
    return profile_.write.Sample(rng_) + profile_.TransferUs(len) +
           chaos_port_.GrayDelayUs();
  }

  sim::Simulator& sim_;
  sim::DeviceProfile profile_;
  Random rng_;
  chaos::SitePort chaos_port_;
  // Page-aligned slot index -> frame; absent slots read as zeros.
  std::unordered_map<uint64_t, Page> frames_;
  CounterStats stats_;
};

/// N replicas with write quorum K and read-one semantics. A write completes
/// when K replicas acknowledge; the remaining replica writes continue in
/// the background (they are not cancelled). This is the durability model of
/// the landing zone (XIO keeps three replicas) and of XStore.
class ReplicatedBlockDevice : public BlockDevice {
 public:
  ReplicatedBlockDevice(sim::Simulator& sim, sim::DeviceProfile profile,
                        int num_replicas, int write_quorum,
                        uint64_t seed = 1)
      : sim_(sim), write_quorum_(write_quorum) {
    for (int i = 0; i < num_replicas; i++) {
      replicas_.push_back(
          std::make_unique<SimBlockDevice>(sim, profile, seed + i * 7919));
    }
    cpu_per_io_us_ = profile.cpu_per_io_us;
  }

  sim::Task<Status> Read(uint64_t offset, uint64_t len,
                         std::string* out) override {
    // Read from the first available replica; fail over on outage.
    for (auto& r : replicas_) {
      Status s = co_await r->Read(offset, len, out);
      if (!s.IsUnavailable()) {
        stats_.reads++;
        stats_.bytes_read += len;
        co_return s;
      }
    }
    co_return Status::Unavailable("all replicas down");
  }

  sim::Task<Status> Write(uint64_t offset, Slice data) override {
    // Fan the write out to every replica; complete as soon as `quorum`
    // replicas acknowledge, or fail once success becomes impossible.
    // Shared state is heap-allocated because laggard replica writes
    // outlive this frame.
    auto state = std::make_shared<WriteState>(sim_);
    state->payload.assign(data.data(), data.size());
    state->quorum = write_quorum_;
    state->max_failures =
        static_cast<int>(replicas_.size()) - write_quorum_;
    for (auto& r : replicas_) {
      sim::Spawn(sim_, ReplicaWrite(r.get(), offset, state));
    }
    co_await state->decided.Wait();
    stats_.writes++;
    stats_.bytes_written += data.size();
    if (state->successes >= state->quorum) co_return Status::OK();
    co_return Status::Unavailable("write quorum not reached");
  }

  SimTime cpu_per_io_us() const override { return cpu_per_io_us_; }
  const CounterStats& stats() const override { return stats_; }

  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  SimBlockDevice* replica(int i) { return replicas_[i].get(); }

  /// Trim the range on every replica (SimBlockDevice::Trim). A laggard
  /// replica write still in flight may land afterwards and re-create its
  /// slots until the range is trimmed again.
  void Trim(uint64_t offset, uint64_t len) {
    for (auto& r : replicas_) r->Trim(offset, len);
  }

  /// Attach every replica to the fault hub under one shared site: a
  /// site outage then takes the whole replica set (no quorum), while
  /// per-replica SetAvailable still works for partial failures.
  void AttachChaos(chaos::Injector* hub, const std::string& site) {
    for (auto& r : replicas_) r->AttachChaos(hub, site);
  }

 private:
  struct WriteState {
    explicit WriteState(sim::Simulator& s) : decided(s) {}
    std::string payload;
    sim::Event decided;
    int quorum = 0;
    int max_failures = 0;
    int successes = 0;
    int failures = 0;
  };

  sim::Task<> ReplicaWrite(SimBlockDevice* dev, uint64_t offset,
                           std::shared_ptr<WriteState> state) {
    Status s = co_await dev->Write(offset, Slice(state->payload));
    if (s.ok()) {
      state->successes++;
      if (state->successes == state->quorum) state->decided.Set();
    } else {
      state->failures++;
      if (state->failures > state->max_failures) state->decided.Set();
    }
  }

  sim::Simulator& sim_;
  int write_quorum_;
  SimTime cpu_per_io_us_ = 0;
  std::vector<std::unique_ptr<SimBlockDevice>> replicas_;
  CounterStats stats_;
};

}  // namespace storage
}  // namespace socrates
