// RBIO protocol tests (§3.4): codec round trips, the level rule,
// transient-failure retries, QoS replica selection, batching, and the
// end-to-end path through a real Page Server.

#include <gtest/gtest.h>

#include <cstring>

#include "rbio/rbio.h"
#include "service/deployment.h"

namespace socrates {
namespace rbio {
namespace {

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
  while (!done && s.Step()) {
  }
  ASSERT_TRUE(done);
}

// Overwrite a frame's u16 level stamp (request or response).
std::string Restamp(std::string frame, uint16_t level) {
  frame[0] = static_cast<char>(level & 0xff);
  frame[1] = static_cast<char>(level >> 8);
  return frame;
}

uint16_t StampOf(const std::string& frame) {
  return DecodeFixed16(frame.data());
}

// ------------------------------------------------------------------ codec

TEST(RbioCodecTest, GetPageRoundTrip) {
  GetPageRequest req;
  req.page_id = 42;
  req.min_lsn = 123456;
  GetPageRequest out;
  uint16_t version = 0;
  ASSERT_TRUE(GetPageRequest::Decode(Slice(req.Encode()), &out, &version)
                  .ok());
  EXPECT_EQ(version, RequiredLevel(MessageType::kGetPage));
  EXPECT_EQ(out.page_id, 42u);
  EXPECT_EQ(out.min_lsn, 123456u);
}

TEST(RbioCodecTest, TypeConfusionRejected) {
  GetPageRequest get;
  GetPageBatchRequest batch;
  batch.entries.push_back({1, 1});
  uint16_t v;
  EXPECT_TRUE(GetPageBatchRequest::Decode(Slice(get.Encode()), &batch, &v)
                  .IsInvalidArgument());
  EXPECT_TRUE(GetPageRequest::Decode(Slice(batch.Encode()), &get, &v)
                  .IsInvalidArgument());
}

TEST(RbioCodecTest, VersionNegotiation) {
  GetPageRequest req;
  req.page_id = 1;
  std::string wire = req.Encode();
  GetPageRequest out;
  uint16_t v;
  // A request is stamped with the lowest level that serves it, so even
  // the oldest server accepts a GetPage...
  EXPECT_TRUE(GetPageRequest::Decode(Slice(wire), &out, &v,
                                     /*server_level=*/1)
                  .ok());
  EXPECT_EQ(v, 1);
  // ...a stamp above the server's level is rejected (old server rejects
  // what it cannot serve)...
  EXPECT_TRUE(GetPageRequest::Decode(Slice(Restamp(wire, 3)), &out, &v,
                                     /*server_level=*/2)
                  .IsNotSupported());
  EXPECT_TRUE(GetPageRequest::Decode(
                  Slice(Restamp(wire, kProtocolVersion + 1)), &out, &v)
                  .IsNotSupported());
  // ...and a stamp below the message's own level is malformed.
  EXPECT_TRUE(GetPageRequest::Decode(Slice(Restamp(wire, 0)), &out, &v)
                  .IsCorruption());
  // A type this build does not know is malformed too, unless its stamp
  // is above the server's level.
  std::string unknown = wire;
  unknown[2] = 2;
  Slice in(unknown);
  MessageType type;
  EXPECT_TRUE(DecodeRequestHeader(&in, kProtocolVersion, &v, &type)
                  .IsInvalidArgument());
  std::string future = Restamp(unknown, kProtocolVersion + 1);
  Slice fin(future);
  EXPECT_TRUE(DecodeRequestHeader(&fin, kProtocolVersion, &v, &type)
                  .IsNotSupported());
}

TEST(RbioCodecTest, ResponseRoundTripWithPages) {
  PageResponse resp;
  resp.status = Status::OK();
  for (PageId id : {5u, 9u}) {
    storage::Page p;
    p.Format(id, storage::PageType::kBTreeLeaf);
    p.UpdateChecksum();
    resp.pages.push_back(std::move(p));
  }
  PageResponse out;
  ASSERT_TRUE(PageResponse::Decode(Slice(resp.Encode()), &out).ok());
  EXPECT_TRUE(out.status.ok());
  ASSERT_EQ(out.pages.size(), 2u);
  EXPECT_EQ(out.pages[0].page_id(), 5u);
  EXPECT_EQ(out.pages[1].page_id(), 9u);
  EXPECT_TRUE(out.pages[1].VerifyChecksum().ok());
}

TEST(RbioCodecTest, ErrorStatusSurvivesWire) {
  PageResponse resp;
  resp.status = Status::NotFound("no such page");
  PageResponse out;
  ASSERT_TRUE(PageResponse::Decode(Slice(resp.Encode()), &out).ok());
  EXPECT_TRUE(out.status.IsNotFound());
  EXPECT_EQ(out.status.message(), "no such page");
}

TEST(RbioCodecTest, TruncatedFramesRejected) {
  GetPageRequest req;
  req.page_id = 7;
  std::string wire = req.Encode();
  GetPageRequest out;
  uint16_t v;
  for (size_t cut : {size_t{1}, size_t{3}, wire.size() - 1}) {
    EXPECT_FALSE(
        GetPageRequest::Decode(Slice(wire.data(), cut), &out, &v).ok());
  }
}

TEST(RbioCodecTest, BatchRequestRoundTrip) {
  GetPageBatchRequest req;
  req.entries.push_back({11, 100});
  req.entries.push_back({22, 0});
  req.entries.push_back({33, 999999});
  std::string wire = req.Encode();
  GetPageBatchRequest out;
  uint16_t v = 0;
  ASSERT_TRUE(GetPageBatchRequest::Decode(Slice(wire), &out, &v).ok());
  EXPECT_EQ(v, RequiredLevel(MessageType::kGetPageBatch));
  ASSERT_EQ(out.entries.size(), 3u);
  EXPECT_EQ(out.entries[0].page_id, 11u);
  EXPECT_EQ(out.entries[0].min_lsn, 100u);
  EXPECT_EQ(out.entries[2].min_lsn, 999999u);
  // Truncations anywhere are rejected, never mis-read.
  for (size_t cut = 0; cut < wire.size(); cut++) {
    EXPECT_FALSE(
        GetPageBatchRequest::Decode(Slice(wire.data(), cut), &out, &v)
            .ok());
  }
}

TEST(RbioCodecTest, BatchRequestVersionGate) {
  GetPageBatchRequest req;
  req.entries.push_back({1, 1});
  GetPageBatchRequest out;
  uint16_t v;
  // A level-2 server (not yet upgraded) rejects batch frames.
  EXPECT_TRUE(GetPageBatchRequest::Decode(Slice(req.Encode()), &out, &v,
                                          /*server_level=*/2)
                  .IsNotSupported());
  // A batch frame stamped below the batch level is malformed.
  EXPECT_TRUE(GetPageBatchRequest::Decode(Slice(Restamp(req.Encode(), 2)),
                                          &out, &v)
                  .IsCorruption());
}

TEST(RbioCodecTest, BatchResponseRoundTripMixedStatuses) {
  GetPageBatchResponse resp;
  resp.status = Status::OK();
  GetPageBatchResponse::Entry ok_entry;
  ok_entry.status = Status::OK();
  ok_entry.page.Format(77, storage::PageType::kBTreeLeaf);
  ok_entry.page.UpdateChecksum();
  resp.entries.push_back(std::move(ok_entry));
  GetPageBatchResponse::Entry missing;
  missing.status = Status::NotFound("no such page");
  resp.entries.push_back(std::move(missing));
  GetPageBatchResponse out;
  ASSERT_TRUE(
      GetPageBatchResponse::Decode(Slice(resp.Encode()), &out).ok());
  EXPECT_TRUE(out.status.ok());
  ASSERT_EQ(out.entries.size(), 2u);
  EXPECT_TRUE(out.entries[0].status.ok());
  EXPECT_EQ(out.entries[0].page.page_id(), 77u);
  EXPECT_TRUE(out.entries[0].page.VerifyChecksum().ok());
  EXPECT_TRUE(out.entries[1].status.IsNotFound());
  EXPECT_EQ(out.entries[1].status.message(), "no such page");
}

TEST(RbioCodecTest, V2NotSupportedReplyDecodesAsBatchFallbackSignal) {
  // The batch fallback hinges on this: a level-2 server answers a batch
  // frame with PageResponse{NotSupported, 0 pages}, whose wire prefix is
  // identical to an empty batch response.
  PageResponse v2_reject;
  v2_reject.status = Status::NotSupported("rbio: unsupported request");
  GetPageBatchResponse out;
  ASSERT_TRUE(
      GetPageBatchResponse::Decode(Slice(v2_reject.Encode(2)), &out).ok());
  EXPECT_TRUE(out.status.IsNotSupported());
  EXPECT_TRUE(out.entries.empty());
}

TEST(RbioCodecTest, ScanRangeRequestRoundTrip) {
  ScanRangeRequest req;
  req.start_page = 17;
  req.start_key = 1000;
  req.end_key = 5000;
  req.limit = 64;
  req.max_pages = 8;
  req.min_lsn = 4242;
  req.read_ts = 99;
  req.predicate = common::ScanPredicate::KeyModEq(16, 3);
  req.projection.extents.push_back({4, 12});
  req.aggregate = common::ScanAggregate::Sum(8);
  std::string wire = req.Encode();
  ScanRangeRequest out;
  uint16_t v = 0;
  ASSERT_TRUE(ScanRangeRequest::Decode(Slice(wire), &out, &v).ok());
  EXPECT_EQ(v, RequiredLevel(MessageType::kScanRange));
  EXPECT_EQ(out.start_page, 17u);
  EXPECT_EQ(out.start_key, 1000u);
  EXPECT_EQ(out.end_key, 5000u);
  EXPECT_EQ(out.limit, 64u);
  EXPECT_EQ(out.max_pages, 8u);
  EXPECT_EQ(out.min_lsn, 4242u);
  EXPECT_EQ(out.read_ts, 99u);
  EXPECT_EQ(out.predicate.op, common::PredOp::kKeyModEq);
  EXPECT_EQ(out.predicate.a, 16u);
  EXPECT_EQ(out.predicate.b, 3u);
  ASSERT_EQ(out.projection.extents.size(), 1u);
  EXPECT_EQ(out.projection.extents[0].offset, 4u);
  EXPECT_EQ(out.projection.extents[0].len, 12u);
  EXPECT_EQ(out.aggregate.fn, common::AggFn::kSum);
  EXPECT_EQ(out.aggregate.field_offset, 8u);
  // Truncations anywhere are rejected, never mis-read.
  for (size_t cut = 0; cut < wire.size(); cut++) {
    EXPECT_FALSE(
        ScanRangeRequest::Decode(Slice(wire.data(), cut), &out, &v).ok());
  }
}

TEST(RbioCodecTest, ScanRangeVersionGate) {
  ScanRangeRequest req;
  ScanRangeRequest out;
  uint16_t v;
  // A level-3 server (not yet upgraded) rejects scan frames...
  EXPECT_TRUE(ScanRangeRequest::Decode(Slice(req.Encode()), &out, &v,
                                       /*server_level=*/3)
                  .IsNotSupported());
  // ...and a level-4 server serves a scan without v5 vocabulary.
  EXPECT_TRUE(ScanRangeRequest::Decode(Slice(req.Encode()), &out, &v,
                                       /*server_level=*/4)
                  .ok());
  // A scan frame stamped below the scan level is malformed, and so is a
  // v5-vocabulary scan stamped 4.
  EXPECT_TRUE(ScanRangeRequest::Decode(Slice(Restamp(req.Encode(), 3)),
                                       &out, &v)
                  .IsCorruption());
  req.predicate = common::ScanPredicate::KeyRange(1, 9);
  EXPECT_TRUE(ScanRangeRequest::Decode(Slice(Restamp(req.Encode(), 4)),
                                       &out, &v)
                  .IsCorruption());
}

TEST(RbioCodecTest, ScanRangeResponseTupleRoundTrip) {
  ScanRangeResponse resp;
  resp.status = Status::OK();
  resp.complete = false;
  resp.resume_key = 777;
  resp.next_leaf = 31;
  resp.rows_scanned = 120;
  resp.pages_scanned = 3;
  std::string v1 = "hello", v2 = "";
  resp.tuples.push_back({10, Slice(v1)});
  resp.tuples.push_back({20, Slice(v2)});
  auto frame = std::make_shared<const std::string>(resp.Encode());
  ScanRangeResponse out;
  ASSERT_TRUE(ScanRangeResponse::Decode(frame, &out).ok());
  EXPECT_TRUE(out.status.ok());
  EXPECT_FALSE(out.complete);
  EXPECT_FALSE(out.aggregated);
  EXPECT_EQ(out.resume_key, 777u);
  EXPECT_EQ(out.next_leaf, 31u);
  EXPECT_EQ(out.rows_scanned, 120u);
  EXPECT_EQ(out.pages_scanned, 3u);
  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_EQ(out.tuples[0].key, 10u);
  EXPECT_EQ(out.tuples[0].value.ToString(), "hello");
  EXPECT_EQ(out.tuples[1].value.size(), 0u);
  // Tuple slices alias the frame; the decode must have retained it.
  EXPECT_NE(out.owner, nullptr);
}

TEST(RbioCodecTest, ScanRangeResponseAggRoundTrip) {
  ScanRangeResponse resp;
  resp.status = Status::OK();
  resp.complete = true;
  resp.aggregated = true;
  resp.agg.rows = 42;
  resp.agg.value = 123456789;
  auto frame = std::make_shared<const std::string>(resp.Encode());
  ScanRangeResponse out;
  ASSERT_TRUE(ScanRangeResponse::Decode(frame, &out).ok());
  EXPECT_TRUE(out.complete);
  EXPECT_TRUE(out.aggregated);
  EXPECT_EQ(out.agg.rows, 42u);
  EXPECT_EQ(out.agg.value, 123456789u);
  EXPECT_TRUE(out.tuples.empty());
}

TEST(RbioCodecTest, V3NotSupportedReplyDecodesAsScanFallbackSignal) {
  // Same trick as batch-vs-level-2: a level-3 server answers a
  // kScanRange frame with PageResponse{NotSupported}, whose wire prefix
  // ScanRangeResponse::Decode reads as an error status and returns OK
  // with that status — the client's cue to fall back.
  PageResponse v3_reject;
  v3_reject.status = Status::NotSupported("rbio: unsupported request");
  auto frame = std::make_shared<const std::string>(v3_reject.Encode(3));
  ScanRangeResponse out;
  ASSERT_TRUE(ScanRangeResponse::Decode(frame, &out).ok());
  EXPECT_TRUE(out.status.IsNotSupported());
  EXPECT_TRUE(out.tuples.empty());
}

TEST(RbioCodecTest, ScanRangeRequestV5RoundTrip) {
  ScanRangeRequest req;
  req.start_key = 100;
  req.end_key = 900;
  req.predicate = common::ScanPredicate::KeyRange(100, 900);
  req.predicate.And(common::ScanPredicate::KeyModEq(7, 3));
  req.aggregate = common::ScanAggregate::Count();
  req.extra_aggregates.push_back(common::ScanAggregate::Sum(0));
  req.extra_aggregates.push_back(common::ScanAggregate::Max(8));
  EXPECT_EQ(req.RequiredLevel(), 5);
  std::string wire = req.Encode();
  ScanRangeRequest out;
  uint16_t v = 0;
  ASSERT_TRUE(ScanRangeRequest::Decode(Slice(wire), &out, &v).ok());
  EXPECT_EQ(v, 5);
  EXPECT_EQ(out.predicate.op, common::PredOp::kKeyRange);
  ASSERT_EQ(out.predicate.conjuncts.size(), 1u);
  EXPECT_EQ(out.predicate.conjuncts[0].a, 7u);
  ASSERT_EQ(out.extra_aggregates.size(), 2u);
  EXPECT_EQ(out.extra_aggregates[0].fn, common::AggFn::kSum);
  EXPECT_EQ(out.extra_aggregates[1].fn, common::AggFn::kMax);
  // A level-4 server rejects the v5 scan.
  EXPECT_TRUE(ScanRangeRequest::Decode(Slice(wire), &out, &v,
                                       /*server_level=*/4)
                  .IsNotSupported());
  // Truncations rejected, never mis-read.
  for (size_t cut = 0; cut < wire.size(); cut++) {
    EXPECT_FALSE(
        ScanRangeRequest::Decode(Slice(wire.data(), cut), &out, &v).ok());
  }
}

TEST(RbioCodecTest, ScanRangeResponseExtraAggsRoundTrip) {
  ScanRangeResponse resp;
  resp.status = Status::OK();
  resp.complete = true;
  resp.aggregated = true;
  resp.agg.rows = 50;
  resp.agg.value = 111;
  common::AggState s1;
  s1.rows = 50;
  s1.value = 4242;
  common::AggState s2;
  s2.rows = 50;
  s2.value = 99;
  resp.extra_aggs.push_back(s1);
  resp.extra_aggs.push_back(s2);
  auto frame = std::make_shared<const std::string>(resp.Encode());
  ScanRangeResponse out;
  ASSERT_TRUE(ScanRangeResponse::Decode(frame, &out).ok());
  EXPECT_TRUE(out.aggregated);
  EXPECT_EQ(out.agg.rows, 50u);
  ASSERT_EQ(out.extra_aggs.size(), 2u);
  EXPECT_EQ(out.extra_aggs[0].value, 4242u);
  EXPECT_EQ(out.extra_aggs[1].value, 99u);
}

TEST(RbioCodecTest, OverloadedStatusSurvivesWire) {
  // kOverloaded is the scan-admission shed signal; it must round-trip so
  // the client planner can distinguish it from NotSupported (a level
  // signal) and Unavailable (retried by transport).
  ScanRangeResponse resp;
  resp.status = Status::Overloaded("ps: scan admission shed");
  auto frame = std::make_shared<const std::string>(resp.Encode());
  ScanRangeResponse out;
  ASSERT_TRUE(ScanRangeResponse::Decode(frame, &out).ok());
  EXPECT_TRUE(out.status.IsOverloaded());
  EXPECT_FALSE(out.status.IsNotSupported());
}

// A forged element count must not drive an allocation: each decoder
// checks the count against the bytes left and answers Corruption.

std::string ForgeCount(std::string frame, size_t offset) {
  const uint32_t forged = 0xFFFFFFFFu;
  std::memcpy(&frame[offset], &forged, 4);
  return frame;
}

TEST(RbioCodecTest, ForgedBatchRequestCountIsCorruption) {
  // The 7-byte header of an empty batch: [level][type][count].
  std::string wire = ForgeCount(GetPageBatchRequest{}.Encode(), 3);
  ASSERT_EQ(wire.size(), 7u);
  GetPageBatchRequest out;
  uint16_t v;
  EXPECT_TRUE(
      GetPageBatchRequest::Decode(Slice(wire), &out, &v).IsCorruption());
}

TEST(RbioCodecTest, ForgedPageResponseCountIsCorruption) {
  // [level][status code][u32 message length][u32 page count]
  std::string wire = ForgeCount(PageResponse{}.Encode(), 7);
  PageResponse out;
  EXPECT_TRUE(PageResponse::Decode(Slice(wire), &out).IsCorruption());
}

TEST(RbioCodecTest, ForgedBatchResponseCountIsCorruption) {
  std::string wire = ForgeCount(GetPageBatchResponse{}.Encode(), 7);
  GetPageBatchResponse out;
  EXPECT_TRUE(
      GetPageBatchResponse::Decode(Slice(wire), &out).IsCorruption());
}

TEST(RbioCodecTest, ForgedScanTupleCountIsCorruption) {
  ScanRangeResponse resp;
  resp.status = Status::OK();
  // The tuple count follows the status, flags and the 28-byte cursor.
  std::string wire = ForgeCount(resp.Encode(), 2 + 5 + 1 + 28);
  ScanRangeResponse out;
  EXPECT_TRUE(
      ScanRangeResponse::Decode(std::make_shared<const std::string>(wire),
                                &out)
          .IsCorruption());
}

// ------------------------------------------------------------ mock server

class MockServer : public RbioServer {
 public:
  MockServer(Simulator& sim, SimTime service_us,
             uint16_t max_version = kProtocolVersion)
      : sim_(sim), service_us_(service_us), max_version_(max_version) {}

  static storage::Page MakePage(PageId id, Lsn lsn) {
    storage::Page p;
    p.Format(id, storage::PageType::kBTreeLeaf);
    p.set_page_lsn(lsn);
    p.UpdateChecksum();
    return p;
  }

  Task<Result<std::string>> HandleRbio(const std::string& frame) override {
    handled_++;
    last_frame_ = frame;
    co_await sim::Delay(sim_, service_us_);
    if (fail_next_ > 0) {
      fail_next_--;
      co_return Result<std::string>(Status::Unavailable("mock outage"));
    }
    GetPageRequest req;
    GetPageBatchRequest batch;
    uint16_t version;
    if (GetPageBatchRequest::Decode(Slice(frame), &batch, &version,
                                    max_version_)
            .ok()) {
      batch_frames_++;
      GetPageBatchResponse bresp;
      bresp.status = Status::OK();
      for (const auto& e : batch.entries) {
        GetPageBatchResponse::Entry out;
        out.status = Status::OK();
        out.page = MakePage(e.page_id, e.min_lsn + 1);
        bresp.entries.push_back(std::move(out));
      }
      co_return bresp.Encode(max_version_);
    }
    PageResponse resp;
    if (GetPageRequest::Decode(Slice(frame), &req, &version, max_version_)
            .ok()) {
      single_frames_++;
      resp.status = Status::OK();
      resp.pages.push_back(MakePage(req.page_id, req.min_lsn + 1));
    } else {
      // What a server below a frame's level does with it.
      resp.status = Status::NotSupported("mock: unknown request");
    }
    co_return resp.Encode(max_version_);
  }

  int handled_ = 0;
  int fail_next_ = 0;
  int batch_frames_ = 0;
  int single_frames_ = 0;
  std::string last_frame_;

 private:
  Simulator& sim_;
  SimTime service_us_;
  uint16_t max_version_;
};

// Issue `n` concurrent GetPage calls for distinct pages and wait for all.
Task<> ConcurrentGets(Simulator& s, RbioClient& client,
                      std::vector<Endpoint> eps, PageId first, int n,
                      int* ok_count) {
  sim::WaitGroup wg(s);
  for (int i = 0; i < n; i++) {
    wg.Add();
    Spawn(s, [](RbioClient* c, std::vector<Endpoint> e, PageId id,
                sim::WaitGroup* w, int* ok) -> Task<> {
      auto r = co_await c->GetPage(e, id, 10);
      if (r.ok() && r->page_id() == id) (*ok)++;
      w->Done();
    }(&client, eps, first + i, &wg, ok_count));
  }
  co_await wg.Wait();
}

TEST(RbioClientTest, RetriesTransientFailures) {
  Simulator s;
  MockServer server(s, 100);
  server.fail_next_ = 2;
  RbioClientOptions opts;
  RbioClient client(s, nullptr, opts);
  std::vector<Endpoint> eps{{&server, "m"}};
  RunSim(s, [&]() -> Task<> {
    auto r = co_await client.GetPage(eps, 7, 50);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) {
      EXPECT_EQ(r->page_id(), 7u);
    }
  });
  EXPECT_EQ(server.handled_, 3);  // 2 failures + 1 success
  EXPECT_EQ(client.retries(), 2u);
}

TEST(RbioClientTest, GivesUpAfterMaxAttempts) {
  Simulator s;
  MockServer server(s, 100);
  server.fail_next_ = 100;
  RbioClientOptions opts;
  opts.max_attempts = 3;
  RbioClient client(s, nullptr, opts);
  std::vector<Endpoint> eps{{&server, "m"}};
  RunSim(s, [&]() -> Task<> {
    auto r = co_await client.GetPage(eps, 7, 50);
    EXPECT_TRUE(r.status().IsUnavailable());
  });
  EXPECT_EQ(server.handled_, 3);
}

TEST(RbioClientTest, QosPrefersFasterReplica) {
  Simulator s;
  MockServer fast(s, 50);
  MockServer slow(s, 4000);
  RbioClient client(s, nullptr, {});
  std::vector<Endpoint> eps{{&slow, "slow"}, {&fast, "fast"}};
  RunSim(s, [&]() -> Task<> {
    for (int i = 0; i < 40; i++) {
      auto r = co_await client.GetPage(eps, i, 0);
      EXPECT_TRUE(r.ok());
    }
  });
  // After exploring both, the client should route nearly everything to
  // the fast replica.
  EXPECT_GT(fast.handled_, 30);
  EXPECT_LT(slow.handled_, 10);
  EXPECT_LT(client.EwmaLatencyUs("fast"), client.EwmaLatencyUs("slow"));
}

TEST(RbioClientTest, FailsOverToOtherReplicaOnOutage) {
  Simulator s;
  MockServer a(s, 50);
  MockServer b(s, 60);
  a.fail_next_ = 1000;  // replica A is down
  RbioClient client(s, nullptr, {});
  RunSim(s, [&]() -> Task<> {
    std::vector<Endpoint> eps{{&a, "a"}, {&b, "b"}};
    for (int i = 0; i < 20; i++) {
      auto r = co_await client.GetPage(eps, i, 0);
      EXPECT_TRUE(r.ok());
    }
  });
  EXPECT_GE(b.handled_, 20);
}

// --------------------------------------------------------------- batching

TEST(RbioBatchTest, ConcurrentMissesPackIntoOneFrame) {
  Simulator s;
  MockServer server(s, 100);
  RbioClientOptions opts;
  opts.max_batch = 16;
  RbioClient client(s, nullptr, opts);
  std::vector<Endpoint> eps{{&server, "m"}};
  int ok = 0;
  RunSim(s, [&]() -> Task<> {
    co_await ConcurrentGets(s, client, eps, 100, 8, &ok);
  });
  EXPECT_EQ(ok, 8);
  // All eight misses were issued in the same tick: one frame, one round
  // trip, seven saved.
  EXPECT_EQ(server.handled_, 1);
  EXPECT_EQ(server.batch_frames_, 1);
  EXPECT_EQ(client.batches_sent(), 1u);
  EXPECT_EQ(client.batched_pages(), 8u);
  EXPECT_EQ(client.round_trips_saved(), 7u);
  EXPECT_EQ(client.singles_sent(), 0u);
  EXPECT_EQ(client.batch_occupancy().max(), 8.0);
}

TEST(RbioBatchTest, BurstsAboveMaxBatchSplitIntoConcurrentFrames) {
  Simulator s;
  MockServer server(s, 100);
  RbioClientOptions opts;
  opts.max_batch = 16;
  RbioClient client(s, nullptr, opts);
  std::vector<Endpoint> eps{{&server, "m"}};
  int ok = 0;
  RunSim(s, [&]() -> Task<> {
    co_await ConcurrentGets(s, client, eps, 100, 40, &ok);
  });
  EXPECT_EQ(ok, 40);
  // 40 misses -> ceil(40/16) = 3 frames, all in flight concurrently.
  EXPECT_EQ(server.handled_, 3);
  EXPECT_EQ(client.batches_sent(), 3u);
  EXPECT_EQ(client.batched_pages(), 40u);
  EXPECT_EQ(client.round_trips_saved(), 37u);
}

TEST(RbioBatchTest, SamePageConcurrentMissesDeduped) {
  Simulator s;
  MockServer server(s, 100);
  RbioClient client(s, nullptr, {});
  std::vector<Endpoint> eps{{&server, "m"}};
  int ok = 0;
  RunSim(s, [&]() -> Task<> {
    sim::WaitGroup wg(s);
    for (int i = 0; i < 5; i++) {
      wg.Add();
      Spawn(s, [](RbioClient* c, std::vector<Endpoint> e,
                  sim::WaitGroup* w, int* okp) -> Task<> {
        auto r = co_await c->GetPage(e, 55, 10);
        if (r.ok() && r->page_id() == 55) (*okp)++;
        w->Done();
      }(&client, eps, &wg, &ok));
    }
    co_await wg.Wait();
  });
  EXPECT_EQ(ok, 5);
  // One wire request total: four callers shared the first one's entry.
  EXPECT_EQ(server.handled_, 1);
  EXPECT_EQ(client.batch_dedup_hits(), 4u);
  EXPECT_EQ(client.requests_sent(), 1u);
}

TEST(RbioBatchTest, LoneMissPaysNoBatchingLatency) {
  // A single miss must behave exactly like the unbatched client: same
  // frame on the wire (a per-page single), same completion time.
  auto run_one = [](uint32_t max_batch, SimTime* finished,
                    std::string* frame) {
    Simulator s;
    MockServer server(s, 100);
    RbioClientOptions opts;
    opts.max_batch = max_batch;
    opts.network = sim::LatencyModel::Fixed(30);
    RbioClient client(s, nullptr, opts);
    std::vector<Endpoint> eps{{&server, "m"}};
    bool done = false;
    Spawn(s, Wrap([](RbioClient* c, std::vector<Endpoint> e) -> Task<> {
            auto r = co_await c->GetPage(e, 9, 10);
            EXPECT_TRUE(r.ok());
          }(&client, eps),
          &done));
    while (!done && s.Step()) {
    }
    *finished = s.now();
    *frame = server.last_frame_;
  };
  SimTime batched_t, unbatched_t;
  std::string batched_frame, unbatched_frame;
  run_one(16, &batched_t, &batched_frame);
  run_one(1, &unbatched_t, &unbatched_frame);
  EXPECT_EQ(batched_t, unbatched_t);
  // Byte-for-byte identical wire behavior.
  EXPECT_EQ(batched_frame, unbatched_frame);
  GetPageRequest expect;
  expect.page_id = 9;
  expect.min_lsn = 10;
  EXPECT_EQ(unbatched_frame, expect.Encode());
}

// ---------------------------------------------------------- mixed version

TEST(RbioMixedVersionTest, V3ClientFallsBackOnV2Server) {
  Simulator s;
  // A server still at level 2: batch frames are NotSupported.
  MockServer server(s, 100, /*max_version=*/2);
  RbioClient client(s, nullptr, {});
  std::vector<Endpoint> eps{{&server, "m"}};
  int ok = 0;
  RunSim(s, [&]() -> Task<> {
    co_await ConcurrentGets(s, client, eps, 100, 6, &ok);
  });
  EXPECT_EQ(ok, 6);  // negotiation is invisible to callers
  EXPECT_EQ(server.batch_frames_, 0);
  EXPECT_EQ(server.single_frames_, 6);
  EXPECT_EQ(client.batch_fallbacks(), 6u);
  EXPECT_EQ(client.batches_sent(), 1u);  // the one rejected probe
  EXPECT_EQ(client.LearnedLevel("m|"), 2);

  // The level is learned: the next burst goes straight to singles.
  int ok2 = 0;
  RunSim(s, [&]() -> Task<> {
    co_await ConcurrentGets(s, client, eps, 200, 6, &ok2);
  });
  EXPECT_EQ(ok2, 6);
  EXPECT_EQ(client.batches_sent(), 1u);  // unchanged
  EXPECT_EQ(server.single_frames_, 12);
}

TEST(RbioMixedVersionTest, V4ScanFallsBackOnV3ServerAndMemoizes) {
  Simulator s;
  // A server still at level 3: kScanRange frames are NotSupported (the
  // MockServer answers undecodable frames exactly like a real level-3
  // server: PageResponse{NotSupported}).
  MockServer server(s, 100, /*max_version=*/3);
  RbioClient client(s, nullptr, {});
  std::vector<Endpoint> eps{{&server, "m"}};
  ScanRangeRequest req;
  req.start_page = 2;
  RunSim(s, [&]() -> Task<> {
    auto r = co_await client.ScanRange(eps, req);
    // The client surfaces the rejection as a NotSupported error: the
    // caller's signal to degrade to the page-based plan.
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsNotSupported());
  });
  EXPECT_EQ(server.handled_, 1);
  EXPECT_EQ(client.scans_sent(), 1u);
  EXPECT_EQ(client.scan_fallbacks(), 1u);

  // The level is learned: the next scan for the same endpoint set
  // short-circuits client-side, no wire traffic at all.
  RunSim(s, [&]() -> Task<> {
    auto r = co_await client.ScanRange(eps, req);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsNotSupported());
  });
  EXPECT_EQ(server.handled_, 1);  // unchanged
  EXPECT_EQ(client.scans_sent(), 1u);
  EXPECT_EQ(client.scan_fallbacks(), 2u);
  EXPECT_EQ(client.LearnedLevel("m|"), 3);
}

TEST(RbioMixedVersionTest, ResponseStampsLowerTheLevelAndResetRestoresIt) {
  Simulator s;
  MockServer server(s, 100, /*max_version=*/3);
  RbioClient client(s, nullptr, {});
  std::vector<Endpoint> eps{{&server, "m"}};
  EXPECT_EQ(client.LearnedLevel("m|"), kProtocolVersion);
  RunSim(s, [&]() -> Task<> {
    // A plain GetPage is served, and its response stamp alone teaches
    // the client that this set is at level 3...
    auto p = co_await client.GetPage(eps, 5, 0);
    EXPECT_TRUE(p.ok());
    // ...so a scan never reaches the wire.
    auto r = co_await client.ScanRange(eps, ScanRangeRequest{});
    EXPECT_TRUE(r.status().IsNotSupported());
  });
  EXPECT_EQ(client.LearnedLevel("m|"), 3);
  EXPECT_EQ(client.scans_sent(), 0u);
  EXPECT_EQ(server.single_frames_, 1);
  // A config-epoch change forgets the level; it is learned again.
  client.ResetLevels();
  EXPECT_EQ(client.LearnedLevel("m|"), kProtocolVersion);
}

// --------------------------------------------- end-to-end via Page Server

service::DeploymentOptions SmallDeployment() {
  service::DeploymentOptions o;
  o.partition_map.pages_per_partition = 4096;
  o.num_page_servers = 1;
  o.compute.mem_pages = 64;
  o.compute.ssd_pages = 128;
  return o;
}

Task<> Load(engine::Engine* e, uint64_t n) {
  for (uint64_t i = 0; i < n; i += 32) {
    auto txn = e->Begin();
    for (uint64_t k = i; k < i + 32; k++) {
      (void)e->Put(txn.get(), engine::MakeKey(1, k),
                   "val-" + std::to_string(k));
    }
    EXPECT_TRUE((co_await e->Commit(txn.get())).ok());
  }
}

TEST(RbioEndToEndTest, PageServerServesTypedRequests) {
  Simulator s;
  service::Deployment d(s, SmallDeployment());
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 500);
    co_await d.page_server(0)->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    RbioClient client(s, nullptr, RbioClientOptions{});
    std::vector<Endpoint> eps{{d.page_server(0), "ps0"}};
    // Typed GetPage.
    auto page = co_await client.GetPage(eps, engine::kRootPageId, 0);
    EXPECT_TRUE(page.ok());
    // A frame of a type the server does not know is malformed, not a
    // level signal.
    GetPageRequest get;
    std::string unknown = get.Encode();
    unknown[2] = 2;
    auto raw = co_await d.page_server(0)->HandleRbio(unknown);
    EXPECT_TRUE(raw.ok());
    Status st;
    if (raw.ok()) {
      EXPECT_TRUE(DecodeResponseStatusPrefix(Slice(*raw), &st).ok());
      EXPECT_EQ(StampOf(*raw), kProtocolVersion);
    }
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_EQ(client.LearnedLevel("ps0|"), kProtocolVersion);
  });
  d.Stop();
}

TEST(RbioEndToEndTest, BatchedGetsAgainstRealPageServer) {
  Simulator s;
  service::Deployment d(s, SmallDeployment());
  RbioClient client(s, nullptr, RbioClientOptions{});
  int ok = 0;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 2000);
    co_await d.page_server(0)->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    std::vector<Endpoint> eps{{d.page_server(0), "ps0"}};
    co_await ConcurrentGets(s, client, eps, engine::kRootPageId, 8, &ok);
  });
  EXPECT_EQ(ok, 8);
  EXPECT_GE(client.batches_sent(), 1u);
  EXPECT_EQ(client.batch_fallbacks(), 0u);
  EXPECT_EQ(d.page_server(0)->batch_requests(), client.batches_sent());
  EXPECT_EQ(d.page_server(0)->batch_subrequests(), client.batched_pages());
  d.Stop();
}

TEST(RbioEndToEndTest, V3ClientDegradesAgainstV2PageServer) {
  Simulator s;
  service::DeploymentOptions o = SmallDeployment();
  o.page_server.rbio_max_version = 2;  // a not-yet-upgraded server
  service::Deployment d(s, o);
  RbioClient client(s, nullptr, RbioClientOptions{});
  int ok = 0;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 2000);
    co_await d.page_server(0)->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    std::vector<Endpoint> eps{{d.page_server(0), "ps0"}};
    co_await ConcurrentGets(s, client, eps, engine::kRootPageId, 8, &ok);
  });
  EXPECT_EQ(ok, 8);  // served correctly despite the level mismatch
  EXPECT_EQ(d.page_server(0)->batch_requests(), 0u);
  EXPECT_EQ(client.batch_fallbacks(), 8u);
  EXPECT_EQ(client.LearnedLevel("ps0|"), 2);
  d.Stop();
}

// Forwards frames to a real Page Server, truncating batch frames on the
// way (a damaged frame, not an old server).
class TruncatingProxy : public RbioServer {
 public:
  Task<Result<std::string>> HandleRbio(const std::string& frame) override {
    if (truncate_batches_ &&
        PeekMessageType(frame) == MessageType::kGetPageBatch) {
      std::string cut = frame.substr(0, frame.size() - 5);
      co_return co_await target_->HandleRbio(cut);
    }
    co_return co_await target_->HandleRbio(frame);
  }
  RbioServer* target_ = nullptr;
  bool truncate_batches_ = true;
};

TEST(RbioEndToEndTest, MalformedBatchGetsCorruptionNotALevelDrop) {
  Simulator s;
  service::Deployment d(s, SmallDeployment());
  RbioClient client(s, nullptr, RbioClientOptions{});
  TruncatingProxy proxy;
  int bad = 0, ok = 0;
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 2000);
    co_await d.page_server(0)->applied_lsn().WaitFor(
        d.log_client().end_lsn());
    // Sent straight to the server, a truncated batch frame is answered
    // with the decoder's own Corruption.
    GetPageBatchRequest batch;
    batch.entries.push_back({engine::kRootPageId, 0});
    std::string frame = batch.Encode();
    auto raw = co_await d.page_server(0)->HandleRbio(
        frame.substr(0, frame.size() - 3));
    Status st;
    if (raw.ok()) (void)DecodeResponseStatusPrefix(Slice(*raw), &st);
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    // Through the client: the damaged batch fails its sub-requests but
    // does not lower the learned level...
    proxy.target_ = d.page_server(0);
    std::vector<Endpoint> eps{{&proxy, "ps0"}};
    co_await ConcurrentGets(s, client, eps, engine::kRootPageId, 8, &bad);
    EXPECT_EQ(client.LearnedLevel("ps0|"), kProtocolVersion);
    // ...so once frames arrive intact, batches still flow.
    proxy.truncate_batches_ = false;
    co_await ConcurrentGets(s, client, eps, engine::kRootPageId, 8, &ok);
  });
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(client.batch_fallbacks(), 0u);
  EXPECT_EQ(client.batches_sent(), 2u);
  EXPECT_EQ(d.page_server(0)->batch_requests(), 1u);
  d.Stop();
}

TEST(RbioEndToEndTest, ComputeSurvivesTransientPageServerFailures) {
  Simulator s;
  service::DeploymentOptions o = SmallDeployment();
  o.compute.mem_pages = 8;
  o.compute.ssd_pages = 16;  // tiny cache: refetches guaranteed
  service::Deployment d(s, o);
  RunSim(s, [&]() -> Task<> {
    EXPECT_TRUE((co_await d.Start()).ok());
    co_await Load(d.primary_engine(), 2000);
    // Short transient failure bursts (below the retry budget) keep
    // hitting the server; reads must still succeed via RBIO retries.
    engine::Engine* e = d.primary_engine();
    auto txn = e->Begin(true);
    int bursts = 0;
    for (uint64_t k = 0; k < 2000; k += 7) {
      if (k % 210 == 0) {
        d.page_server(0)->InjectTransientFailures(2);
        bursts++;
      }
      auto v = co_await e->Get(txn.get(), engine::MakeKey(1, k));
      EXPECT_TRUE(v.ok()) << "key " << k << ": " << v.status().ToString();
    }
    EXPECT_GT(bursts, 5);
    (void)co_await e->Commit(txn.get());
  });
  EXPECT_GT(d.primary()->rbio_client().retries(), 0u);
  d.Stop();
}

}  // namespace
}  // namespace rbio
}  // namespace socrates
