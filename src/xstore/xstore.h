// XStore: simulated Azure Standard Storage — the durable "truth" tier
// (paper §4.7). Log-structured: every write appends an immutable data
// segment, and a blob is a metadata map from byte ranges to segments.
// That makes snapshots and restores **constant-time metadata
// operations** (keep a pointer / copy an extent table), the property
// Socrates' size-of-data-free backup/restore depends on (§3.5).
//
// Extents hold their segment by shared_ptr, so a segment's bytes are
// freed as soon as no blob or snapshot extent refers to it any more
// (overwritten, deleted, or replaced by a restore); there is no sweep.
// Memory is bounded by live data plus what snapshots pin, while
// stored_bytes() still counts every byte ever appended.
//
// Cheap and durable but slow: every operation pays the XStore latency
// profile. Outage injection models transient Azure Storage failures, which
// Page Servers must insulate against (§4.6).

#pragma once

#include <cstdint>
#include <map>
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
#include "sim/task.h"

namespace socrates {
namespace xstore {

using SnapshotId = uint64_t;

class XStore {
 public:
  /// `bandwidth_mb_s` caps transfer throughput (1 MB/s == 1 byte/us);
  /// large reads/writes pay size/bandwidth on top of the base latency.
  explicit XStore(sim::Simulator& sim,
                  sim::DeviceProfile profile = sim::DeviceProfile::XStore(),
                  double bandwidth_mb_s = 200.0, uint64_t seed = 1)
      : sim_(sim),
        profile_(profile),
        bandwidth_mb_s_(bandwidth_mb_s),
        rng_(seed) {}

  // Segments point back at retained_bytes_.
  XStore(const XStore&) = delete;
  XStore& operator=(const XStore&) = delete;

  /// Latency of constant-time metadata operations (snapshot, restore,
  /// delete): independent of blob size by construction.
  static constexpr SimTime kMetaOpLatencyUs = 20000;

  /// Write `data` into `blob` at `offset` (creating the blob if needed).
  /// Appends a segment and patches the extent table; segments that no
  /// extent refers to afterwards are freed.
  sim::Task<Status> Write(const std::string& blob, uint64_t offset,
                          Slice data);

  /// Read `len` bytes at `offset`. Unwritten ranges read as zeros.
  sim::Task<Status> Read(const std::string& blob, uint64_t offset,
                         uint64_t len, std::string* out);

  /// Constant-time snapshot of a blob: captures the extent table. No data
  /// bytes are copied, whatever the blob size.
  sim::Task<Result<SnapshotId>> Snapshot(const std::string& blob);

  /// Constant-time restore: materialize `dst` from a snapshot's extent
  /// table (sharing the snapshot's segments). Whatever `dst` held before
  /// is released.
  sim::Task<Status> Restore(SnapshotId snap, const std::string& dst);

  sim::Task<Status> Delete(const std::string& blob);

  /// True if the blob exists.
  bool Exists(const std::string& blob) const {
    return blobs_.count(blob) > 0;
  }

  /// Logical size (highest written offset) of a blob; 0 if missing.
  uint64_t BlobSize(const std::string& blob) const;

  /// List blob names with the given prefix (control-plane helper).
  std::vector<std::string> List(const std::string& prefix) const;

  /// Outage injection; while down, every operation fails Unavailable.
  /// (Shim over the chaos port; deployment-wide outage windows come in
  /// through AttachChaos under site "xstore".)
  void SetAvailable(bool a) { chaos_port_.SetOutage(!a); }
  bool available() const { return !chaos_port_.Out(); }

  void AttachChaos(chaos::Injector* hub, const std::string& site) {
    chaos_port_.Attach(hub, site);
  }

  /// Total data bytes ever appended (cumulative, including overwritten
  /// and freed segments): storage-cost accounting for the Table 1
  /// "storage impact" comparison.
  uint64_t stored_bytes() const { return stored_bytes_; }

  /// Bytes of the segments still held, i.e. referenced by some blob or
  /// snapshot extent: what the store keeps in memory.
  uint64_t retained_bytes() const { return retained_bytes_; }

  const CounterStats& stats() const { return stats_; }

  /// Synchronous metadata read used by tests: raw blob contents.
  std::string ReadRaw(const std::string& blob, uint64_t offset,
                      uint64_t len) const;

 private:
  // An immutable data segment. Its bytes count toward retained_bytes()
  // from the append until the last extent referring to it lets go.
  struct SegmentData {
    SegmentData(Slice data, uint64_t* retained)
        : bytes(data.data(), data.size()), retained(retained) {
      *retained += bytes.size();
    }
    ~SegmentData() { *retained -= bytes.size(); }
    const std::string bytes;
    uint64_t* const retained;
  };
  using Segment = std::shared_ptr<const SegmentData>;

  // One contiguous range of a blob mapped onto a data segment. Splitting
  // or trimming an extent copies or drops its segment reference.
  struct Extent {
    Segment segment;
    uint64_t seg_offset;  // offset within the segment
    uint64_t length;
  };
  // Extent table: key = blob offset of the extent start. Non-overlapping.
  using ExtentMap = std::map<uint64_t, Extent>;

  struct Blob {
    ExtentMap extents;
    uint64_t size = 0;
  };

  void ApplyWrite(Blob* b, uint64_t offset, Segment segment);
  void ReadInto(const Blob& b, uint64_t offset, uint64_t len,
                char* out) const;

  sim::Simulator& sim_;
  sim::DeviceProfile profile_;
  double bandwidth_mb_s_;
  Random rng_;
  chaos::SitePort chaos_port_;

  // Declared before the extent tables: segments they free on destruction
  // still update it.
  uint64_t retained_bytes_ = 0;
  std::unordered_map<std::string, Blob> blobs_;
  std::unordered_map<SnapshotId, Blob> snapshots_;
  SnapshotId next_snapshot_ = 1;
  uint64_t stored_bytes_ = 0;
  CounterStats stats_;
};

}  // namespace xstore
}  // namespace socrates
