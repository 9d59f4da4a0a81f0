// Tests for pages and simulated block devices: header round-trips,
// checksums, sparse device storage, latency ordering, replication quorum,
// outage behaviour.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "storage/block_device.h"
#include "storage/page.h"

namespace socrates {
namespace storage {
namespace {

using sim::DeviceProfile;
using sim::Simulator;
using sim::Spawn;
using sim::Task;

// -------------------------------------------------------------------- Page

TEST(PageTest, FormatSetsHeader) {
  Page p;
  p.Format(42, PageType::kBTreeLeaf);
  EXPECT_EQ(p.page_id(), 42u);
  EXPECT_EQ(p.type(), PageType::kBTreeLeaf);
  EXPECT_EQ(p.page_lsn(), kInvalidLsn);
  EXPECT_EQ(p.slot_count(), 0);
  EXPECT_EQ(p.free_offset(), kPageHeaderSize);
}

TEST(PageTest, HeaderFieldRoundTrips) {
  Page p;
  p.Format(7, PageType::kMeta);
  p.set_page_lsn(123456789ull);
  p.set_slot_count(99);
  p.set_free_offset(512);
  p.set_aux(0xCAFE);
  EXPECT_EQ(p.page_lsn(), 123456789ull);
  EXPECT_EQ(p.slot_count(), 99);
  EXPECT_EQ(p.free_offset(), 512);
  EXPECT_EQ(p.aux(), 0xCAFEu);
}

TEST(PageTest, ChecksumDetectsCorruption) {
  Page p;
  p.Format(1, PageType::kBTreeLeaf);
  memcpy(p.data() + 100, "hello", 5);
  p.UpdateChecksum();
  EXPECT_TRUE(p.VerifyChecksum().ok());
  p.data()[200] ^= 0x01;
  EXPECT_TRUE(p.VerifyChecksum().IsCorruption());
}

TEST(PageTest, CopyIsDeep) {
  Page a;
  a.Format(5, PageType::kBTreeLeaf);
  memcpy(a.data() + 64, "payload", 7);
  Page b = a;
  b.data()[64] = 'X';
  EXPECT_EQ(a.data()[64], 'p');
  EXPECT_EQ(b.page_id(), 5u);
}

TEST(PageTest, CopyIsZeroCopyUntilFirstWrite) {
  Page a;
  a.Format(5, PageType::kBTreeLeaf);
  memcpy(a.data() + 64, "payload", 7);
  Page b = a;
  // COW: the copy aliases the same frame until someone writes.
  EXPECT_EQ(a.cdata(), b.cdata());
  b.data()[64] = 'X';
  EXPECT_NE(a.cdata(), b.cdata());
  EXPECT_EQ(a.cdata()[64], 'p');
  EXPECT_EQ(b.cdata()[64], 'X');
}

TEST(PageTest, DefaultPagesShareTheZeroFrame) {
  Page a;
  Page b;
  EXPECT_EQ(a.cdata(), b.cdata());
  EXPECT_EQ(a.cdata()[0], '\0');
  EXPECT_EQ(a.cdata()[kPageSize - 1], '\0');
  // Writing one detaches it without disturbing the shared zero frame.
  a.data()[0] = 'x';
  EXPECT_NE(a.cdata(), b.cdata());
  EXPECT_EQ(b.cdata()[0], '\0');
}

TEST(PageTest, AliasReadsForeignBufferWithoutCopy) {
  Page src;
  src.Format(9, PageType::kBTreeLeaf);
  src.set_page_lsn(55);
  src.UpdateChecksum();
  // The idiom of the zero-copy RBIO decode path: alias a page image
  // inside a (shared) wire frame instead of memcpy'ing it out.
  auto frame = std::make_shared<std::string>(src.cdata(), kPageSize);
  Page aliased = Page::Alias(frame, frame->data());
  EXPECT_EQ(aliased.cdata(), frame->data());
  EXPECT_EQ(aliased.page_id(), 9u);
  EXPECT_EQ(aliased.page_lsn(), 55u);
  EXPECT_TRUE(aliased.VerifyChecksum().ok());
  // A write detaches the alias; the wire frame is never scribbled on.
  aliased.data()[100] = 'Z';
  EXPECT_NE(aliased.cdata(), frame->data());
  EXPECT_EQ((*frame)[100], src.cdata()[100]);
}

TEST(PageTest, UnaliasCopiesOnlyAliasedImages) {
  Page src;
  src.Format(9, PageType::kBTreeLeaf);
  src.UpdateChecksum();
  auto frame = std::make_shared<std::string>(src.cdata(), kPageSize);
  Page aliased = Page::Alias(frame, frame->data());
  ASSERT_TRUE(aliased.VerifyChecksum().ok());
  aliased.Unalias();
  EXPECT_NE(aliased.cdata(), frame->data());
  EXPECT_EQ(std::string(aliased.cdata(), kPageSize), *frame);
  EXPECT_TRUE(aliased.checksum_current());
  EXPECT_EQ(frame.use_count(), 1);  // the buffer is no longer pinned
  // An own frame is left alone.
  const char* own = aliased.cdata();
  aliased.Unalias();
  EXPECT_EQ(aliased.cdata(), own);
  Page copy = src;
  copy.Unalias();
  EXPECT_EQ(copy.cdata(), src.cdata());
}

TEST(PageTest, SliceRoundTrip) {
  Page a;
  a.Format(9, PageType::kVersionStore);
  a.set_page_lsn(55);
  a.UpdateChecksum();
  Page b;
  ASSERT_TRUE(b.FromSlice(a.AsSlice()).ok());
  EXPECT_TRUE(b.VerifyChecksum().ok());
  EXPECT_EQ(b.page_id(), 9u);
  EXPECT_EQ(b.page_lsn(), 55u);
  EXPECT_TRUE(b.FromSlice(Slice("short")).IsInvalidArgument());
}

TEST(PageTest, EveryMutatorClearsChecksumCurrentBit) {
  Page base;
  base.Format(3, PageType::kBTreeLeaf);
  base.UpdateChecksum();
  ASSERT_TRUE(base.checksum_current());
  const std::vector<std::function<void(Page*)>> mutators = {
      [](Page* p) { p->data()[100] = 'm'; },
      [](Page* p) { p->set_type(PageType::kMeta); },
      [](Page* p) { p->set_page_id(4); },
      [](Page* p) { p->set_page_lsn(77); },
      [](Page* p) { p->set_slot_count(5); },
      [](Page* p) { p->set_free_offset(64); },
      [](Page* p) { p->set_aux(9); },
      [](Page* p) { p->Format(3, PageType::kBTreeLeaf); },
      [&base](Page* p) { ASSERT_TRUE(p->FromSlice(base.AsSlice()).ok()); },
  };
  for (size_t i = 0; i < mutators.size(); i++) {
    Page p = base;
    ASSERT_TRUE(p.checksum_current()) << "mutator " << i;
    mutators[i](&p);
    EXPECT_FALSE(p.checksum_current()) << "mutator " << i;
  }
}

TEST(PageTest, FailingVerifyDoesNotSetChecksumCurrentBit) {
  Page p;
  p.Format(1, PageType::kBTreeLeaf);  // stored checksum never computed
  EXPECT_TRUE(p.VerifyChecksum().IsCorruption());
  EXPECT_FALSE(p.checksum_current());
  p.UpdateChecksum();
  p.data()[300] ^= 0x10;
  EXPECT_TRUE(p.VerifyChecksum().IsCorruption());
  EXPECT_FALSE(p.checksum_current());
  // A passing verify sets the bit.
  p.data()[300] ^= 0x10;
  EXPECT_FALSE(p.checksum_current());
  EXPECT_TRUE(p.VerifyChecksum().ok());
  EXPECT_TRUE(p.checksum_current());
}

TEST(PageTest, VerifyRecomputesDespiteChecksumCurrentBit) {
  Page p;
  p.Format(1, PageType::kBTreeLeaf);
  char* stale = p.data();
  p.UpdateChecksum();
  ASSERT_TRUE(p.checksum_current());
  // A write through a pointer taken before UpdateChecksum bypasses the
  // bit; VerifyChecksum must not trust it.
  stale[200] ^= 0x01;
  EXPECT_TRUE(p.VerifyChecksum().IsCorruption());
}

TEST(PageTest, CopiesCarryChecksumCurrentBit) {
  Page a;
  a.Format(6, PageType::kBTreeLeaf);
  a.set_page_lsn(40);
  a.UpdateChecksum();
  Page b = a;
  EXPECT_TRUE(b.checksum_current());
  // An already-current checksum costs nothing: no detach.
  b.UpdateChecksum();
  EXPECT_EQ(a.cdata(), b.cdata());
  // Mutating one copy clears only its own bit; the other stays valid.
  b.set_page_lsn(41);
  EXPECT_FALSE(b.checksum_current());
  EXPECT_TRUE(a.checksum_current());
  EXPECT_TRUE(a.VerifyChecksum().ok());
  EXPECT_EQ(a.page_lsn(), 40u);
  b.UpdateChecksum();
  EXPECT_TRUE(b.VerifyChecksum().ok());
  EXPECT_EQ(b.page_lsn(), 41u);
}

// ---------------------------------------------------------- SimBlockDevice

TEST(SimBlockDeviceTest, WriteReadRoundTrip) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  std::string got;
  Status ws, rs;
  Spawn(s, [](SimBlockDevice& d, std::string* out, Status* w,
              Status* r) -> Task<> {
    *w = co_await d.Write(1000, Slice("hello device"));
    *r = co_await d.Read(1000, 12, out);
  }(dev, &got, &ws, &rs));
  s.Run();
  EXPECT_TRUE(ws.ok());
  EXPECT_TRUE(rs.ok());
  EXPECT_EQ(got, "hello device");
  EXPECT_GT(s.now(), 0);  // latency was modelled
}

TEST(SimBlockDeviceTest, UnwrittenReadsAsZero) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  std::string got;
  Spawn(s, [](SimBlockDevice& d, std::string* out) -> Task<> {
    (void)co_await d.Read(5 * GiB, 16, out);
  }(dev, &got));
  s.Run();
  EXPECT_EQ(got, std::string(16, '\0'));
}

TEST(SimBlockDeviceTest, SparseAllocation) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  Spawn(s, [](SimBlockDevice& d) -> Task<> {
    (void)co_await d.Write(10 * GiB, Slice("far away"));
  }(dev));
  s.Run();
  // Writing 8 bytes at 10 GiB must not allocate 10 GiB.
  EXPECT_LT(dev.allocated_bytes(), 1 * MiB);
}

TEST(SimBlockDeviceTest, CrossChunkWrite) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  std::string big(200 * KiB, 'z');  // spans multiple 64 KiB chunks
  for (size_t i = 0; i < big.size(); i++) big[i] = static_cast<char>(i % 251);
  std::string got;
  Spawn(s, [](SimBlockDevice& d, const std::string& data,
              std::string* out) -> Task<> {
    (void)co_await d.Write(60 * KiB, Slice(data));
    (void)co_await d.Read(60 * KiB, data.size(), out);
  }(dev, big, &got));
  s.Run();
  EXPECT_EQ(got, big);
}

TEST(SimBlockDeviceTest, OutageFailsRequests) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::XStore());
  dev.SetAvailable(false);
  Status ws;
  Spawn(s, [](SimBlockDevice& d, Status* w) -> Task<> {
    *w = co_await d.Write(0, Slice("x"));
  }(dev, &ws));
  s.Run();
  EXPECT_TRUE(ws.IsUnavailable());
  dev.SetAvailable(true);
  Status ws2;
  Spawn(s, [](SimBlockDevice& d, Status* w) -> Task<> {
    *w = co_await d.Write(0, Slice("x"));
  }(dev, &ws2));
  s.Run();
  EXPECT_TRUE(ws2.ok());
}

TEST(SimBlockDeviceTest, StatsAccumulate) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  Spawn(s, [](SimBlockDevice& d) -> Task<> {
    (void)co_await d.Write(0, Slice("abcd"));
    std::string out;
    (void)co_await d.Read(0, 4, &out);
    (void)co_await d.Read(0, 2, &out);
  }(dev));
  s.Run();
  EXPECT_EQ(dev.stats().writes, 1u);
  EXPECT_EQ(dev.stats().reads, 2u);
  EXPECT_EQ(dev.stats().bytes_written, 4u);
  EXPECT_EQ(dev.stats().bytes_read, 6u);
}

Page ChecksummedPage(PageId id, Lsn lsn) {
  Page p;
  p.Format(id, PageType::kBTreeLeaf);
  p.set_page_lsn(lsn);
  memcpy(p.data() + 100, "page body", 9);
  p.UpdateChecksum();
  return p;
}

TEST(SimBlockDeviceTest, WritePageThenReadPageSharesFrame) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  Page page = ChecksummedPage(3, 30);
  const char* frame = page.cdata();
  Result<Page> got(Status::Unavailable("not run"));
  Status ws;
  Spawn(s, [](SimBlockDevice& d, Page p, Status* w,
              Result<Page>* out) -> Task<> {
    *w = co_await d.WritePage(2 * kPageSize, std::move(p));
    *out = co_await d.ReadPage(2 * kPageSize);
  }(dev, page, &ws, &got));
  s.Run();
  ASSERT_TRUE(ws.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->cdata(), frame);  // no copy either way
  EXPECT_TRUE(got->checksum_current());
  EXPECT_TRUE(got->VerifyChecksum().ok());
  EXPECT_EQ(got->page_lsn(), 30u);
  EXPECT_EQ(dev.allocated_bytes(), kPageSize);
}

TEST(SimBlockDeviceTest, ByteReadReturnsWhatWritePageStored) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  Page page = ChecksummedPage(4, 40);
  std::string whole, part;
  Spawn(s, [](SimBlockDevice& d, Page p, std::string* w,
              std::string* pt) -> Task<> {
    (void)co_await d.WritePage(kPageSize, std::move(p));
    (void)co_await d.Read(kPageSize, kPageSize, w);
    // A byte range straddling the written frame and an unwritten one.
    (void)co_await d.Read(2 * kPageSize - 4, 8, pt);
  }(dev, page, &whole, &part));
  s.Run();
  EXPECT_EQ(whole, std::string(page.cdata(), kPageSize));
  EXPECT_EQ(part, std::string(page.cdata() + kPageSize - 4, 4) +
                      std::string(4, '\0'));
}

TEST(SimBlockDeviceTest, ByteWriteLeavesOutstandingPageUnchanged) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  Page page = ChecksummedPage(5, 50);
  Result<Page> before(Status::Unavailable("not run"));
  Result<Page> after(Status::Unavailable("not run"));
  std::string bytes;
  Spawn(s, [](SimBlockDevice& d, Page p, Result<Page>* b, Result<Page>* a,
              std::string* out) -> Task<> {
    (void)co_await d.WritePage(0, std::move(p));
    *b = co_await d.ReadPage(0);
    // Bit-rot through the byte path: the frame is shared with *b (and
    // the caller's page), so the write must detach it first.
    (void)co_await d.Write(100, Slice("XYZ"));
    *a = co_await d.ReadPage(0);
    (void)co_await d.Read(100, 3, out);
  }(dev, page, &before, &after, &bytes));
  s.Run();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->cdata(), page.cdata());
  EXPECT_EQ(std::string(before->cdata() + 100, 9), "page body");
  EXPECT_TRUE(before->VerifyChecksum().ok());
  EXPECT_TRUE(page.VerifyChecksum().ok());
  EXPECT_NE(after->cdata(), page.cdata());
  EXPECT_EQ(std::string(after->cdata() + 100, 3), "XYZ");
  EXPECT_EQ(bytes, "XYZ");
  EXPECT_FALSE(after->checksum_current());
  EXPECT_TRUE(after->VerifyChecksum().IsCorruption());
}

TEST(SimBlockDeviceTest, UnwrittenReadPageIsZeroPage) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  Result<Page> got(Status::Unavailable("not run"));
  Spawn(s, [](SimBlockDevice& d, Result<Page>* out) -> Task<> {
    *out = co_await d.ReadPage(5 * GiB);
  }(dev, &got));
  s.Run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::string(got->cdata(), kPageSize),
            std::string(kPageSize, '\0'));
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(SimBlockDeviceTest, PageCallsRejectUnalignedOffsets) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  Result<Page> r{Page()};
  Status w;
  Spawn(s, [](SimBlockDevice& d, Result<Page>* rr, Status* ww) -> Task<> {
    *rr = co_await d.ReadPage(100);
    *ww = co_await d.WritePage(kPageSize + 1, Page());
  }(dev, &r, &w));
  s.Run();
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_TRUE(w.IsInvalidArgument());
  EXPECT_EQ(dev.stats().reads + dev.stats().writes, 0u);
}

// One read then one write of page 0: through the page calls when
// `page_calls`, else as 8 KiB byte calls. Returns each call's status and
// completion time.
struct PageIoTrace {
  Status read, write;
  SimTime read_done = 0, write_done = 0;
  CounterStats stats;
};

PageIoTrace RunPageIo(bool page_calls, bool available) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd(), /*seed=*/11);
  dev.SetAvailable(available);
  PageIoTrace t;
  Spawn(s, [](Simulator& sim, SimBlockDevice& d, bool pages,
              PageIoTrace* out) -> Task<> {
    Page page = ChecksummedPage(1, 10);
    if (pages) {
      Result<Page> r = co_await d.ReadPage(0);
      out->read = r.status();
    } else {
      std::string image;
      out->read = co_await d.Read(0, kPageSize, &image);
    }
    out->read_done = sim.now();
    if (pages) {
      out->write = co_await d.WritePage(0, page);
    } else {
      out->write = co_await d.Write(0, page.AsSlice());
    }
    out->write_done = sim.now();
  }(s, dev, page_calls, &t));
  s.Run();
  t.stats = dev.stats();
  return t;
}

TEST(SimBlockDeviceTest, PageCallsCostExactlyAnEightKiBByteCall) {
  for (bool available : {true, false}) {
    PageIoTrace bytes = RunPageIo(/*page_calls=*/false, available);
    PageIoTrace pages = RunPageIo(/*page_calls=*/true, available);
    EXPECT_GT(bytes.read_done, 0);
    EXPECT_EQ(pages.read_done, bytes.read_done) << available;
    EXPECT_EQ(pages.write_done, bytes.write_done) << available;
    EXPECT_EQ(pages.read.ok(), bytes.read.ok());
    EXPECT_EQ(pages.write.ok(), bytes.write.ok());
    EXPECT_EQ(pages.read.IsUnavailable(), !available);
    EXPECT_EQ(pages.write.IsUnavailable(), !available);
    EXPECT_EQ(bytes.read.IsUnavailable(), !available);
    EXPECT_EQ(pages.stats.reads, bytes.stats.reads);
    EXPECT_EQ(pages.stats.writes, bytes.stats.writes);
    EXPECT_EQ(pages.stats.bytes_read, bytes.stats.bytes_read);
    EXPECT_EQ(pages.stats.bytes_written, bytes.stats.bytes_written);
  }
}

TEST(SimBlockDeviceTest, TrimFreesOnlyWholeSlotsAndTheyReadAsZeros) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  std::string data(4 * kPageSize, '\0');
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<char>('a' + i % 23);
  }
  dev.WriteRaw(0, data.data(), data.size());
  EXPECT_EQ(dev.allocated_bytes(), 4 * kPageSize);
  // [100, 3 * kPageSize + 100) covers slots 1 and 2 whole; slots 0 and 3
  // only in part.
  dev.Trim(100, 3 * kPageSize);
  EXPECT_EQ(dev.allocated_bytes(), 2 * kPageSize);
  std::string got(data.size(), 'x');
  dev.ReadRaw(0, got.size(), got.data());
  EXPECT_EQ(got.substr(0, kPageSize), data.substr(0, kPageSize));
  EXPECT_EQ(got.substr(kPageSize, 2 * kPageSize),
            std::string(2 * kPageSize, '\0'));
  EXPECT_EQ(got.substr(3 * kPageSize), data.substr(3 * kPageSize));
  // A range inside one slot, or empty, frees nothing.
  dev.Trim(10, kPageSize - 20);
  dev.Trim(3 * kPageSize, 0);
  EXPECT_EQ(dev.allocated_bytes(), 2 * kPageSize);
  // Trim draws no latency and counts no I/O.
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(dev.stats().writes, 0u);
  EXPECT_EQ(dev.stats().reads, 0u);
}

TEST(SimBlockDeviceTest, TrimLeavesOutstandingPageUnchanged) {
  Simulator s;
  SimBlockDevice dev(s, DeviceProfile::LocalSsd());
  Page page = ChecksummedPage(6, 60);
  Result<Page> before(Status::Unavailable("not run"));
  Result<Page> after(Status::Unavailable("not run"));
  Spawn(s, [](SimBlockDevice& d, Page p, Result<Page>* b,
              Result<Page>* a) -> Task<> {
    (void)co_await d.WritePage(3 * kPageSize, std::move(p));
    *b = co_await d.ReadPage(3 * kPageSize);
    d.Trim(3 * kPageSize, kPageSize);
    *a = co_await d.ReadPage(3 * kPageSize);
  }(dev, page, &before, &after));
  s.Run();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->cdata(), page.cdata());
  EXPECT_TRUE(before->VerifyChecksum().ok());
  EXPECT_EQ(before->page_lsn(), 60u);
  EXPECT_EQ(std::string(after->cdata(), kPageSize),
            std::string(kPageSize, '\0'));
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

// --------------------------------------------------- ReplicatedBlockDevice

TEST(ReplicatedDeviceTest, WriteReachesAllReplicasEventually) {
  Simulator s;
  ReplicatedBlockDevice dev(s, DeviceProfile::Xio(), 3, 2);
  Status ws;
  Spawn(s, [](ReplicatedBlockDevice& d, Status* w) -> Task<> {
    *w = co_await d.Write(512, Slice("quorum payload"));
  }(dev, &ws));
  s.Run();  // run to completion: laggard replica writes finish too
  EXPECT_TRUE(ws.ok());
  for (int i = 0; i < 3; i++) {
    char buf[14];
    dev.replica(i)->ReadRaw(512, 14, buf);
    EXPECT_EQ(std::string(buf, 14), "quorum payload") << "replica " << i;
  }
}

TEST(ReplicatedDeviceTest, TrimAppliesToEveryReplica) {
  Simulator s;
  ReplicatedBlockDevice dev(s, DeviceProfile::Xio(), 3, 2);
  std::string data(3 * kPageSize, 'r');
  Spawn(s, [](ReplicatedBlockDevice& d, std::string* p) -> Task<> {
    (void)co_await d.Write(0, Slice(*p));
  }(dev, &data));
  s.Run();
  dev.Trim(0, 2 * kPageSize);
  for (int i = 0; i < 3; i++) {
    EXPECT_EQ(dev.replica(i)->allocated_bytes(), kPageSize) << i;
  }
}

TEST(ReplicatedDeviceTest, QuorumFasterThanAllReplicas) {
  // Commit completes at the 2nd-fastest replica, not the slowest. With a
  // wide uniform distribution, quorum-of-2 beats waiting for all 3.
  Simulator s;
  sim::DeviceProfile p;
  p.read = sim::LatencyModel::Fixed(100);
  p.write = sim::LatencyModel::Uniform(1000, 9000);
  ReplicatedBlockDevice quorum_dev(s, p, 3, 2, /*seed=*/99);
  ReplicatedBlockDevice all_dev(s, p, 3, 3, /*seed=*/99);

  SimTime t_quorum = 0, t_all = 0;
  Spawn(s, [](Simulator& sm, ReplicatedBlockDevice& d,
              SimTime* out) -> Task<> {
    SimTime begin = sm.now();
    for (int i = 0; i < 50; i++) {
      (void)co_await d.Write(i * 512, Slice("x"));
    }
    *out = sm.now() - begin;
  }(s, quorum_dev, &t_quorum));
  s.Run();
  Spawn(s, [](Simulator& sm, ReplicatedBlockDevice& d,
              SimTime* out) -> Task<> {
    SimTime begin = sm.now();
    for (int i = 0; i < 50; i++) {
      (void)co_await d.Write(i * 512, Slice("x"));
    }
    *out = sm.now() - begin;
  }(s, all_dev, &t_all));
  s.Run();
  EXPECT_LT(t_quorum, t_all);
}

TEST(ReplicatedDeviceTest, SurvivesMinorityOutage) {
  Simulator s;
  ReplicatedBlockDevice dev(s, DeviceProfile::Xio(), 3, 2);
  dev.replica(0)->SetAvailable(false);
  Status ws;
  std::string got;
  Spawn(s, [](ReplicatedBlockDevice& d, Status* w, std::string* out)
            -> Task<> {
    *w = co_await d.Write(0, Slice("still durable"));
    (void)co_await d.Read(0, 13, out);
  }(dev, &ws, &got));
  s.Run();
  EXPECT_TRUE(ws.ok());
  EXPECT_EQ(got, "still durable");  // read fails over past the dead replica
}

TEST(ReplicatedDeviceTest, FailsWithoutQuorum) {
  Simulator s;
  ReplicatedBlockDevice dev(s, DeviceProfile::Xio(), 3, 2);
  dev.replica(0)->SetAvailable(false);
  dev.replica(1)->SetAvailable(false);
  Status ws;
  Spawn(s, [](ReplicatedBlockDevice& d, Status* w) -> Task<> {
    *w = co_await d.Write(0, Slice("lost"));
  }(dev, &ws));
  s.Run();
  EXPECT_TRUE(ws.IsUnavailable());
}

TEST(ReplicatedDeviceTest, AllReplicasDownReadFails) {
  Simulator s;
  ReplicatedBlockDevice dev(s, DeviceProfile::Xio(), 3, 2);
  for (int i = 0; i < 3; i++) dev.replica(i)->SetAvailable(false);
  Status rs;
  std::string out;
  Spawn(s, [](ReplicatedBlockDevice& d, Status* r, std::string* o)
            -> Task<> {
    *r = co_await d.Read(0, 8, o);
  }(dev, &rs, &out));
  s.Run();
  EXPECT_TRUE(rs.IsUnavailable());
}

}  // namespace
}  // namespace storage
}  // namespace socrates
