// Stress/regression tests for BufferPool concurrency: these pin down two
// real races found during development —
//  (1) SSD slot recycling while a promotion read was in flight delivered
//      another page's image under the wrong page id;
//  (2) a reader promoting the *stale* SSD image while the eviction spill
//      of the fresh image was still in flight lost updates.
// Both manifest only under concurrent access with tiny cache tiers. A
// third pins down a failed spill: the SSD index must not describe an
// image the device never stored.

#include <gtest/gtest.h>

#include <map>

#include "chaos/chaos.h"
#include "common/coding.h"
#include "engine/buffer_pool.h"
#include "engine/btree_page.h"

namespace socrates {
namespace engine {
namespace {

using sim::Simulator;
using sim::Spawn;
using sim::Task;

// Fetcher serving freshly formatted pages stamped with their id; tracks
// how many times each page was fetched.
class FreshFetcher : public PageFetcher {
 public:
  explicit FreshFetcher(Simulator& sim) : sim_(sim) {}

  Task<Result<storage::Page>> FetchPage(PageId page_id) override {
    co_await sim::Delay(sim_, 250);
    fetches_++;
    storage::Page p;
    BTreePage::Format(&p, page_id, 0, kMinKey, kMaxKey, kInvalidPageId);
    p.set_page_lsn(1);
    p.UpdateChecksum();
    co_return p;
  }

  int fetches_ = 0;

 private:
  Simulator& sim_;
};

TEST(BufferPoolStressTest, ConcurrentReadersNeverSeeWrongPage) {
  Simulator sim;
  FreshFetcher fetcher(sim);
  BufferPoolOptions opts;
  opts.mem_pages = 4;
  opts.ssd_pages = 8;  // heavy slot recycling
  BufferPool pool(sim, opts, &fetcher);

  const PageId kPages = 64;
  int errors = 0;
  int wrong_page = 0;
  int completed = 0;
  for (int r = 0; r < 8; r++) {
    Spawn(sim, [](Simulator& s, BufferPool& p, int seed, int* errs,
                  int* wrong, int* done) -> Task<> {
      Random rng(seed);
      for (int i = 0; i < 1500; i++) {
        PageId want = rng.Uniform(kPages);
        Result<PageRef> ref = co_await p.GetPage(want);
        if (!ref.ok()) {
          (*errs)++;
        } else if (ref->page()->page_id() != want) {
          (*wrong)++;
        }
        if (i % 7 == 0) co_await sim::Delay(s, rng.Uniform(50));
      }
      (*done)++;
    }(sim, pool, 100 + r, &errors, &wrong_page, &completed));
  }
  sim.Run();
  EXPECT_EQ(completed, 8);
  EXPECT_EQ(errors, 0);      // no Corruption statuses (race detected)
  EXPECT_EQ(wrong_page, 0);  // and certainly no wrong images delivered
}

TEST(BufferPoolStressTest, EvictionNeverLosesUpdates) {
  // Writers bump a per-page counter stored in the page body; constant
  // eviction/promotion churn must never regress any counter.
  Simulator sim;
  BufferPoolOptions opts;
  opts.mem_pages = 3;
  opts.ssd_pages = 256;  // covering SSD: full evictions never happen
  BufferPool pool(sim, opts, nullptr);

  const PageId kPages = 32;
  // Materialize pages.
  bool init_done = false;
  Spawn(sim, [](BufferPool& p, bool* done) -> Task<> {
    for (PageId id = 0; id < kPages; id++) {
      Result<PageRef> ref = p.NewPage(id);
      EXPECT_TRUE(ref.ok());
      ref->page()->Format(id, storage::PageType::kBTreeLeaf);
      EncodeFixed64(ref->page()->data() + 100, 0);  // counter
      ref.value().MarkDirty();
    }
    *done = true;
    co_return;
  }(pool, &init_done));
  sim.Run();
  ASSERT_TRUE(init_done);

  std::map<PageId, uint64_t> model;
  int violations = 0;
  int done_workers = 0;
  for (int w = 0; w < 6; w++) {
    Spawn(sim, [](Simulator& s, BufferPool& p,
                  std::map<PageId, uint64_t>* m, int seed, int* viol,
                  int* done) -> Task<> {
      Random rng(seed);
      for (int i = 0; i < 1200; i++) {
        PageId id = rng.Uniform(kPages);
        Result<PageRef> ref = co_await p.GetPage(id);
        if (!ref.ok()) {
          (*viol)++;
          continue;
        }
        uint64_t stored = DecodeFixed64(ref->page()->data() + 100);
        uint64_t expect = (*m)[id];
        if (stored < expect) (*viol)++;  // lost update!
        // Synchronous read-modify-write while pinned.
        EncodeFixed64(ref->page()->data() + 100, stored + 1);
        ref->page()->set_page_lsn(stored + 2);
        ref.value().MarkDirty();
        if (stored + 1 > (*m)[id]) (*m)[id] = stored + 1;
        if (i % 5 == 0) co_await sim::Delay(s, rng.Uniform(30));
      }
      (*done)++;
    }(sim, pool, &model, 7 + w, &violations, &done_workers));
  }
  sim.Run();
  EXPECT_EQ(done_workers, 6);
  EXPECT_EQ(violations, 0);
}

TEST(BufferPoolStressTest, CrashDuringEvictionSpillIsSafe) {
  // Regression: eviction used to run as a detached coroutine holding a
  // raw BufferPool*; a Crash() while a spill was suspended in the SSD
  // write left it to resume against torn state. The life-token fence
  // must let in-flight spills finish their I/O without touching the
  // pool, and the pool must recover cleanly afterwards.
  Simulator sim;
  BufferPoolOptions opts;
  opts.mem_pages = 2;
  opts.ssd_pages = 16;
  BufferPool pool(sim, opts, nullptr);

  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, bool* done) -> Task<> {
    for (PageId id = 0; id < 8; id++) {
      Result<PageRef> ref = p.NewPage(id);
      EXPECT_TRUE(ref.ok());
      ref->page()->Format(id, storage::PageType::kBTreeLeaf);
      ref->page()->set_page_lsn(1);
      ref.value().MarkDirty();
    }
    // Eviction spills are now queued/in flight. Crash before they land.
    co_await sim::Yield(s);
    p.Crash();
    co_await sim::Delay(s, 5000);  // drain the fenced background tasks
    Result<size_t> rec = co_await p.Recover(/*durable_end_lsn=*/100);
    EXPECT_TRUE(rec.ok());
    // Whatever survived must be self-consistent and servable.
    for (PageId id = 0; id < 8; id++) {
      Result<PageRef> ref = co_await p.GetIfCached(id);
      if (ref.ok()) {
        EXPECT_EQ(ref->page()->page_id(), id);
      }
    }
    // And the pool is still fully functional after the crash.
    Result<PageRef> fresh = p.NewPage(100);
    EXPECT_TRUE(fresh.ok());
    *done = true;
  }(sim, pool, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(BufferPoolStressTest, DestroyPoolWithInflightSpillIsSafe) {
  // Destroying the pool while spills/prefetches are suspended must not
  // leave detached coroutines resuming into freed memory (the SSD
  // device is kept alive by shared ownership; pool state is fenced by
  // the life token). ASan in CI is the real assertion here.
  Simulator sim;
  FreshFetcher fetcher(sim);
  {
    BufferPoolOptions opts;
    opts.mem_pages = 2;
    opts.ssd_pages = 16;
    auto pool = std::make_unique<BufferPool>(sim, opts, &fetcher);
    for (PageId id = 0; id < 8; id++) {
      Result<PageRef> ref = pool->NewPage(id);
      EXPECT_TRUE(ref.ok());
      ref->page()->Format(id, storage::PageType::kBTreeLeaf);
      ref->page()->set_page_lsn(1);
      ref.value().MarkDirty();
    }
    pool->Prefetch({50, 51, 52});  // remote prefetches also in flight
    for (int i = 0; i < 4; i++) sim.Step();
    // Spills are suspended inside SSD writes; destroy the pool now.
  }
  sim.Run();  // drain the orphaned coroutines — must not crash
}

TEST(BufferPoolStressTest, CrashCancelsInflightPrefetch) {
  Simulator sim;
  FreshFetcher fetcher(sim);
  BufferPoolOptions opts;
  opts.mem_pages = 16;
  BufferPool pool(sim, opts, &fetcher);

  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, bool* done) -> Task<> {
    p.Prefetch({1, 2, 3, 4});
    co_await sim::Yield(s);
    p.Crash();  // fetches still in flight
    co_await sim::Delay(s, 2000);
    // The fetched images must NOT have been installed into the
    // post-crash pool (they reflect pre-crash speculation).
    EXPECT_EQ(p.mem_resident(), 0u);
    // The pool remains usable for demand traffic.
    Result<PageRef> ref = co_await p.GetPage(1);
    EXPECT_TRUE(ref.ok());
    *done = true;
  }(sim, pool, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

// An RBPEX outage while victims spill: the SSD slot of a dirty page still
// holds its previous image, which passes the checksum and page-id checks.
// The pool must keep the fresh image in memory (dirty) instead of
// recording it in the SSD index, and a clean victim must leave the node
// through the eviction callback, so no later GetPage sees a stale or
// never-written image.
TEST(BufferPoolStressTest, FailedSpillNeverServesStaleImage) {
  Simulator sim;
  FreshFetcher fetcher(sim);
  BufferPoolOptions opts;
  opts.mem_pages = 2;
  opts.ssd_pages = 64;
  BufferPool pool(sim, opts, &fetcher);
  chaos::Injector hub;
  pool.AttachChaos(&hub, "rbpex");
  std::map<PageId, Lsn> evicted;
  pool.set_eviction_callback(
      [&](PageId id, Lsn lsn) { evicted[id] = lsn; });

  bool done = false;
  Spawn(sim, [](Simulator& s, BufferPool& p, chaos::Injector& h,
                FreshFetcher& f, std::map<PageId, Lsn>& ev,
                bool* done) -> Task<> {
    // Pages 0..3, dirty, counter 1 on page 0; 0 and 1 spill to SSD.
    for (PageId id = 0; id < 4; id++) {
      Result<PageRef> ref = p.NewPage(id);
      EXPECT_TRUE(ref.ok());
      ref->page()->Format(id, storage::PageType::kBTreeLeaf);
      EncodeFixed64(ref->page()->data() + 100, id == 0 ? 1 : 0);
      ref->page()->set_page_lsn(1);
      ref.value().MarkDirty();
    }
    co_await sim::Delay(s, 2000);
    EXPECT_FALSE(p.InMemory(0));
    // Promote page 0 and bump it to counter 2; fetch clean page 100.
    {
      Result<PageRef> ref = co_await p.GetPage(0);
      EXPECT_TRUE(ref.ok());
      if (!ref.ok()) co_return;
      EncodeFixed64(ref->page()->data() + 100, 2);
      ref->page()->set_page_lsn(2);
      ref.value().MarkDirty();
    }
    EXPECT_TRUE((co_await p.GetPage(100)).ok());
    co_await sim::Delay(s, 2000);

    // Outage: every spill from here on fails.
    h.SetOutage("rbpex", true);
    for (PageId id = 10; id < 16; id++) {
      Result<PageRef> ref = p.NewPage(id);
      EXPECT_TRUE(ref.ok());
      ref->page()->Format(id, storage::PageType::kBTreeLeaf);
      ref.value().MarkDirty();
      co_await sim::Delay(s, 2000);
    }
    EXPECT_GT(p.stats().ssd_write_failures, 0u);
    // The dirty page stayed in memory with its dirty bit; the clean one
    // left the node entirely.
    EXPECT_TRUE(p.InMemory(0));
    EXPECT_GT(p.DirtyGen(0), 0u);
    EXPECT_FALSE(p.Contains(100));
    EXPECT_EQ(ev.count(100), 1u);
    h.SetOutage("rbpex", false);

    Result<PageRef> ref = co_await p.GetPage(0);
    EXPECT_TRUE(ref.ok());
    if (ref.ok()) {
      EXPECT_EQ(DecodeFixed64(ref->page()->cdata() + 100), 2u);
      EXPECT_EQ(ref->page()->page_lsn(), 2u);
    }
    ref = Result<PageRef>(Status::NotFound("released"));
    // Once the device is back, spills land: page 0's SSD image is fresh.
    for (PageId id = 20; id < 26; id++) {
      Result<PageRef> r = p.NewPage(id);
      EXPECT_TRUE(r.ok());
      r->page()->Format(id, storage::PageType::kBTreeLeaf);
      co_await sim::Delay(s, 2000);
    }
    EXPECT_FALSE(p.InMemory(0));
    ref = co_await p.GetPage(0);
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    if (ref.ok()) {
      EXPECT_EQ(DecodeFixed64(ref->page()->cdata() + 100), 2u);
    }
    // The clean page comes back from the fetcher, not a never-written
    // slot.
    int fetches = f.fetches_;
    Result<PageRef> clean = co_await p.GetPage(100);
    EXPECT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_EQ(f.fetches_, fetches + 1);
    *done = true;
  }(sim, pool, hub, fetcher, evicted, &done));
  sim.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace engine
}  // namespace socrates
