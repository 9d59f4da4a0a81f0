// Seeded mutation fuzzing of every wire decoder: the RBIO requests and
// responses, the scan-expression codecs, XLOG block frames, and the log
// record codec with its stream framing.
//
// The toolchain has no libFuzzer, so a fixed-seed mutator runs inside
// gtest. Each case takes a valid encoding, applies one to three
// mutations (bit flip, byte overwrite, a forged u16/u32 count or length,
// truncation) and decodes the result. Every case must return a Status
// without throwing. When a decode reports OK, re-encoding the decoded
// value and decoding that again must give the same value.

#include <gtest/gtest.h>

#include <cstring>
#include <exception>
#include <functional>

#include "common/random.h"
#include "common/scan_expr.h"
#include "engine/log_record.h"
#include "rbio/rbio.h"
#include "xlog/log_block.h"

namespace socrates {
namespace {

using rbio::GetPageBatchRequest;
using rbio::GetPageBatchResponse;
using rbio::GetPageRequest;
using rbio::PageResponse;
using rbio::ScanRangeRequest;
using rbio::ScanRangeResponse;

constexpr int kCases = 4000;

class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  std::string Mutate(const std::string& valid) {
    std::string f = valid;
    const uint64_t n = 1 + rng_.Uniform(3);
    for (uint64_t i = 0; i < n; i++) MutateOnce(&f);
    return f;
  }

 private:
  // Headers and counts sit near the front of every frame: aim half the
  // mutations there so they are hit in large frames too.
  size_t Pos(size_t size) {
    return rng_.Uniform(2) == 0 ? rng_.Uniform(std::min<size_t>(size, 24))
                                : rng_.Uniform(size);
  }

  uint32_t ForgedValue(size_t size) {
    switch (rng_.Uniform(6)) {
      case 0: return 0xFFFFFFFFu;
      case 1: return 0x80000000u;
      case 2: return 0x7FFFFFFFu;
      case 3: return static_cast<uint32_t>(size + rng_.Uniform(4));
      case 4: return static_cast<uint32_t>(rng_.Uniform(4));
      default: return static_cast<uint32_t>(rng_.Next());
    }
  }

  void MutateOnce(std::string* f) {
    if (f->empty()) {
      f->push_back(static_cast<char>(rng_.Next()));
      return;
    }
    switch (rng_.Uniform(5)) {
      case 0: {  // bit flip
        size_t p = Pos(f->size());
        (*f)[p] = static_cast<char>((*f)[p] ^ (1u << rng_.Uniform(8)));
        break;
      }
      case 1:  // byte overwrite
        (*f)[Pos(f->size())] = static_cast<char>(rng_.Next());
        break;
      case 2: {  // forged u32 count or length
        if (f->size() < 4) break;
        uint32_t v = ForgedValue(f->size());
        std::memcpy(&(*f)[Pos(f->size() - 3)], &v, 4);
        break;
      }
      case 3: {  // forged u16 count or level
        if (f->size() < 2) break;
        auto v = static_cast<uint16_t>(ForgedValue(f->size()));
        std::memcpy(&(*f)[Pos(f->size() - 1)], &v, 2);
        break;
      }
      default:  // truncation
        f->resize(rng_.Uniform(f->size()));
        break;
    }
  }

  Random rng_;
};

// Runs kCases mutations of `valid` frames through `check`, which decodes
// one frame, verifies any OK result re-encodes to the same value, and
// returns whether the decode was OK. Each valid frame must decode OK.
void Fuzz(const std::vector<std::string>& valid, uint64_t seed,
          const std::function<bool(const std::string&)>& check) {
  for (const std::string& f : valid) {
    ASSERT_TRUE(check(f)) << "a valid frame failed to decode";
  }
  Mutator m(seed);
  int decoded = 0;
  for (int i = 0; i < kCases; i++) {
    std::string frame = m.Mutate(valid[i % valid.size()]);
    try {
      if (check(frame)) decoded++;
    } catch (const std::exception& e) {
      FAIL() << "case " << i << ": decoder threw " << e.what();
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "case " << i << " failed";
    }
  }
  // The mutator must leave some frames decodable, or the re-encode
  // check above never ran.
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kCases);
}

storage::Page MakePage(PageId id, char fill) {
  storage::Page p;
  p.Format(id, storage::PageType::kBTreeLeaf);
  p.data()[100] = fill;
  p.UpdateChecksum();
  return p;
}

bool SamePage(const storage::Page& a, const storage::Page& b) {
  return std::memcmp(a.data(), b.data(), kPageSize) == 0;
}

bool SameStatus(const Status& a, const Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

bool SamePredicate(const common::ScanPredicate& a,
                   const common::ScanPredicate& b) {
  if (a.op != b.op || a.a != b.a || a.b != b.b ||
      a.conjuncts.size() != b.conjuncts.size()) {
    return false;
  }
  for (size_t i = 0; i < a.conjuncts.size(); i++) {
    const auto& x = a.conjuncts[i];
    const auto& y = b.conjuncts[i];
    if (x.op != y.op || x.a != y.a || x.b != y.b) return false;
  }
  return true;
}

bool SameProjection(const common::ScanProjection& a,
                    const common::ScanProjection& b) {
  if (a.extents.size() != b.extents.size()) return false;
  for (size_t i = 0; i < a.extents.size(); i++) {
    if (a.extents[i].offset != b.extents[i].offset ||
        a.extents[i].len != b.extents[i].len) {
      return false;
    }
  }
  return true;
}

bool SameAggs(const common::ScanAggregateList& a,
              const common::ScanAggregateList& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i].fn != b[i].fn || a[i].field_offset != b[i].field_offset) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- requests

TEST(WireFuzzTest, GetPageRequest) {
  GetPageRequest a;
  a.page_id = 42;
  a.min_lsn = 1234567;
  Fuzz({a.Encode(), GetPageRequest{}.Encode()}, 1,
       [](const std::string& f) {
         GetPageRequest out;
         uint16_t level;
         if (!GetPageRequest::Decode(Slice(f), &out, &level).ok()) {
           return false;
         }
         GetPageRequest again;
         EXPECT_TRUE(
             GetPageRequest::Decode(Slice(out.Encode()), &again, &level)
                 .ok());
         EXPECT_EQ(again.page_id, out.page_id);
         EXPECT_EQ(again.min_lsn, out.min_lsn);
         return true;
       });
}

TEST(WireFuzzTest, GetPageBatchRequest) {
  GetPageBatchRequest full;
  for (PageId id = 1; id <= 5; id++) full.entries.push_back({id, id * 10});
  Fuzz({full.Encode(), GetPageBatchRequest{}.Encode()}, 2,
       [](const std::string& f) {
         GetPageBatchRequest out;
         uint16_t level;
         if (!GetPageBatchRequest::Decode(Slice(f), &out, &level).ok()) {
           return false;
         }
         GetPageBatchRequest again;
         EXPECT_TRUE(GetPageBatchRequest::Decode(Slice(out.Encode()),
                                                 &again, &level)
                         .ok());
         EXPECT_EQ(again.entries.size(), out.entries.size());
         for (size_t i = 0;
              i < std::min(again.entries.size(), out.entries.size()); i++) {
           EXPECT_EQ(again.entries[i].page_id, out.entries[i].page_id);
           EXPECT_EQ(again.entries[i].min_lsn, out.entries[i].min_lsn);
         }
         return true;
       });
}

TEST(WireFuzzTest, ScanRangeRequest) {
  ScanRangeRequest v4;
  v4.start_page = 17;
  v4.start_key = 1000;
  v4.end_key = 5000;
  v4.limit = 64;
  v4.predicate = common::ScanPredicate::KeyModEq(16, 3);
  v4.projection.extents.push_back({4, 12});
  v4.aggregate = common::ScanAggregate::Sum(8);
  ScanRangeRequest v5 = v4;
  v5.predicate = common::ScanPredicate::KeyRange(100, 900);
  v5.predicate.And(common::ScanPredicate::PayloadByteLt(2, 77));
  v5.extra_aggregates.push_back(common::ScanAggregate::Max(8));
  Fuzz({v4.Encode(), v5.Encode(), ScanRangeRequest{}.Encode()}, 3,
       [](const std::string& f) {
         ScanRangeRequest out;
         uint16_t level;
         if (!ScanRangeRequest::Decode(Slice(f), &out, &level).ok()) {
           return false;
         }
         ScanRangeRequest again;
         EXPECT_TRUE(
             ScanRangeRequest::Decode(Slice(out.Encode()), &again, &level)
                 .ok());
         EXPECT_EQ(again.start_page, out.start_page);
         EXPECT_EQ(again.start_key, out.start_key);
         EXPECT_EQ(again.end_key, out.end_key);
         EXPECT_EQ(again.limit, out.limit);
         EXPECT_EQ(again.max_pages, out.max_pages);
         EXPECT_EQ(again.min_lsn, out.min_lsn);
         EXPECT_EQ(again.read_ts, out.read_ts);
         EXPECT_TRUE(SamePredicate(again.predicate, out.predicate));
         EXPECT_TRUE(SameProjection(again.projection, out.projection));
         EXPECT_TRUE(SameAggs({again.aggregate}, {out.aggregate}));
         EXPECT_TRUE(SameAggs(again.extra_aggregates, out.extra_aggregates));
         return true;
       });
}

TEST(WireFuzzTest, RequestHeader) {
  GetPageBatchRequest batch;
  batch.entries.push_back({1, 1});
  Fuzz({GetPageRequest{}.Encode(), batch.Encode()}, 4,
       [](const std::string& f) {
         Slice in(f);
         uint16_t level;
         rbio::MessageType type;
         Status s = rbio::DecodeRequestHeader(&in, /*server_level=*/3,
                                              &level, &type);
         if (!s.ok()) {
           // Only a stamp above the server's level reads as NotSupported.
           EXPECT_TRUE(!s.IsNotSupported() || (f.size() >= 3 && level > 3));
           return false;
         }
         EXPECT_GE(level, rbio::RequiredLevel(type));
         EXPECT_LE(level, 3);
         return true;
       });
}

// --------------------------------------------------------------- responses

bool SamePageResponse(const PageResponse& a, const PageResponse& b) {
  if (!SameStatus(a.status, b.status) || a.pages.size() != b.pages.size()) {
    return false;
  }
  for (size_t i = 0; i < a.pages.size(); i++) {
    if (!SamePage(a.pages[i], b.pages[i])) return false;
  }
  return true;
}

TEST(WireFuzzTest, PageResponse) {
  PageResponse two;
  two.status = Status::OK();
  two.pages.push_back(MakePage(5, 'a'));
  two.pages.push_back(MakePage(9, 'b'));
  PageResponse err;
  err.status = Status::NotFound("no such page");
  Fuzz({two.Encode(), err.Encode(), PageResponse{}.Encode()}, 5,
       [](const std::string& f) {
         // Both the copying and the zero-copy decode.
         PageResponse copied;
         Status cs = PageResponse::Decode(Slice(f), &copied);
         PageResponse aliased;
         Status as = PageResponse::Decode(
             std::make_shared<const std::string>(f), &aliased);
         EXPECT_EQ(cs.ok(), as.ok());
         if (!cs.ok()) return false;
         EXPECT_TRUE(SamePageResponse(copied, aliased));
         PageResponse again;
         EXPECT_TRUE(PageResponse::Decode(Slice(copied.Encode()), &again)
                         .ok());
         EXPECT_TRUE(SamePageResponse(again, copied));
         return true;
       });
}

TEST(WireFuzzTest, SinglePageResponse) {
  storage::Page page = MakePage(7, 'c');
  Fuzz({rbio::EncodeSinglePageResponse(Status::OK(), &page),
        rbio::EncodeSinglePageResponse(Status::Unavailable("later"),
                                       nullptr)},
       6, [](const std::string& f) {
         Status status;
         storage::Page out;
         if (!rbio::DecodeSinglePageResponse(
                  std::make_shared<const std::string>(f), &status, &out)
                  .ok()) {
           return false;
         }
         Status status2;
         storage::Page again;
         EXPECT_TRUE(rbio::DecodeSinglePageResponse(
                         std::make_shared<const std::string>(
                             rbio::EncodeSinglePageResponse(
                                 status, status.ok() ? &out : nullptr)),
                         &status2, &again)
                         .ok());
         EXPECT_TRUE(SameStatus(status2, status));
         if (status.ok()) {
           EXPECT_TRUE(SamePage(again, out));
         }
         return true;
       });
}

bool SameBatchResponse(const GetPageBatchResponse& a,
                       const GetPageBatchResponse& b) {
  if (!SameStatus(a.status, b.status) ||
      a.entries.size() != b.entries.size()) {
    return false;
  }
  for (size_t i = 0; i < a.entries.size(); i++) {
    if (!SameStatus(a.entries[i].status, b.entries[i].status)) return false;
    if (a.entries[i].status.ok() &&
        !SamePage(a.entries[i].page, b.entries[i].page)) {
      return false;
    }
  }
  return true;
}

TEST(WireFuzzTest, GetPageBatchResponse) {
  GetPageBatchResponse mixed;
  mixed.status = Status::OK();
  GetPageBatchResponse::Entry hit;
  hit.status = Status::OK();
  hit.page = MakePage(77, 'd');
  mixed.entries.push_back(hit);
  GetPageBatchResponse::Entry miss;
  miss.status = Status::NotFound("gone");
  mixed.entries.push_back(miss);
  mixed.entries.push_back(miss);
  GetPageBatchResponse misses;
  misses.status = Status::OK();
  misses.entries.assign(3, miss);
  Fuzz({mixed.Encode(), misses.Encode(), GetPageBatchResponse{}.Encode()},
       7, [](const std::string& f) {
         GetPageBatchResponse copied;
         Status cs = GetPageBatchResponse::Decode(Slice(f), &copied);
         GetPageBatchResponse aliased;
         Status as = GetPageBatchResponse::Decode(
             std::make_shared<const std::string>(f), &aliased);
         EXPECT_EQ(cs.ok(), as.ok());
         if (!cs.ok()) return false;
         EXPECT_TRUE(SameBatchResponse(copied, aliased));
         GetPageBatchResponse again;
         EXPECT_TRUE(
             GetPageBatchResponse::Decode(Slice(copied.Encode()), &again)
                 .ok());
         EXPECT_TRUE(SameBatchResponse(again, copied));
         return true;
       });
}

bool SameScanResponse(const ScanRangeResponse& a,
                      const ScanRangeResponse& b) {
  if (!SameStatus(a.status, b.status)) return false;
  if (!a.status.ok()) return true;  // error responses carry no body
  if (a.complete != b.complete || a.fence_miss != b.fence_miss ||
      a.aggregated != b.aggregated || a.resume_key != b.resume_key ||
      a.next_leaf != b.next_leaf || a.rows_scanned != b.rows_scanned ||
      a.pages_scanned != b.pages_scanned) {
    return false;
  }
  if (a.aggregated) {
    if (a.agg.rows != b.agg.rows || a.agg.value != b.agg.value ||
        a.extra_aggs.size() != b.extra_aggs.size()) {
      return false;
    }
    for (size_t i = 0; i < a.extra_aggs.size(); i++) {
      if (a.extra_aggs[i].rows != b.extra_aggs[i].rows ||
          a.extra_aggs[i].value != b.extra_aggs[i].value) {
        return false;
      }
    }
    return true;
  }
  if (a.tuples.size() != b.tuples.size()) return false;
  for (size_t i = 0; i < a.tuples.size(); i++) {
    if (a.tuples[i].key != b.tuples[i].key ||
        a.tuples[i].value.ToView() != b.tuples[i].value.ToView()) {
      return false;
    }
  }
  return true;
}

TEST(WireFuzzTest, ScanRangeResponse) {
  ScanRangeResponse tuples;
  tuples.status = Status::OK();
  tuples.resume_key = 777;
  tuples.next_leaf = 31;
  tuples.rows_scanned = 120;
  tuples.pages_scanned = 3;
  std::string v1 = "hello", v2;
  tuples.tuples.push_back({10, Slice(v1)});
  tuples.tuples.push_back({20, Slice(v2)});
  ScanRangeResponse agg;
  agg.status = Status::OK();
  agg.complete = true;
  agg.aggregated = true;
  agg.agg = {42, 123456789};
  agg.extra_aggs.push_back({42, 4242});
  ScanRangeResponse shed;
  shed.status = Status::Overloaded("ps: scan admission shed");
  Fuzz({tuples.Encode(), agg.Encode(), shed.Encode()}, 8,
       [](const std::string& f) {
         ScanRangeResponse out;
         if (!ScanRangeResponse::Decode(
                  std::make_shared<const std::string>(f), &out)
                  .ok()) {
           return false;
         }
         ScanRangeResponse again;
         EXPECT_TRUE(ScanRangeResponse::Decode(
                         std::make_shared<const std::string>(out.Encode()),
                         &again)
                         .ok());
         EXPECT_TRUE(SameScanResponse(again, out));
         return true;
       });
}

TEST(WireFuzzTest, ResponseStatusPrefix) {
  PageResponse err;
  err.status = Status::Overloaded("gateway: tenant in scan backoff");
  Fuzz({err.Encode(), PageResponse{}.Encode()}, 9,
       [](const std::string& f) {
         Status out;
         if (!rbio::DecodeResponseStatusPrefix(Slice(f), &out).ok()) {
           return false;
         }
         PageResponse re;
         re.status = out;
         Status again;
         EXPECT_TRUE(
             rbio::DecodeResponseStatusPrefix(Slice(re.Encode()), &again)
                 .ok());
         EXPECT_TRUE(SameStatus(again, out));
         return true;
       });
}

// -------------------------------------------------------- scan expressions

TEST(WireFuzzTest, ScanExpressionCodecs) {
  common::ScanPredicate pred = common::ScanPredicate::KeyRange(5, 500);
  pred.And(common::ScanPredicate::KeyModEq(7, 3));
  common::ScanProjection proj;
  proj.extents.push_back({0, 8});
  proj.extents.push_back({16, 4});
  common::ScanAggregateList aggs = {common::ScanAggregate::Count(),
                                    common::ScanAggregate::Min(8)};
  // One buffer holds all four codecs back to back, as in a kScanRange
  // body; the check decodes them in order.
  std::string body;
  common::EncodePredicate(&body, pred);
  common::EncodeProjection(&body, proj);
  common::EncodeAggregate(&body, common::ScanAggregate::Sum(4));
  common::EncodeAggregateList(&body, aggs);
  std::string empty;
  common::EncodePredicate(&empty, common::ScanPredicate::All());
  common::EncodeProjection(&empty, common::ScanProjection{});
  common::EncodeAggregate(&empty, common::ScanAggregate::None());
  common::EncodeAggregateList(&empty, {});
  Fuzz({body, empty}, 10, [](const std::string& f) {
    Slice in(f);
    common::ScanPredicate p;
    common::ScanProjection pr;
    common::ScanAggregate a;
    common::ScanAggregateList l;
    if (!common::DecodePredicate(&in, &p).ok() ||
        !common::DecodeProjection(&in, &pr).ok() ||
        !common::DecodeAggregate(&in, &a).ok() ||
        !common::DecodeAggregateList(&in, &l).ok()) {
      return false;
    }
    std::string re;
    common::EncodePredicate(&re, p);
    common::EncodeProjection(&re, pr);
    common::EncodeAggregate(&re, a);
    common::EncodeAggregateList(&re, l);
    Slice rin(re);
    common::ScanPredicate p2;
    common::ScanProjection pr2;
    common::ScanAggregate a2;
    common::ScanAggregateList l2;
    EXPECT_TRUE(common::DecodePredicate(&rin, &p2).ok());
    EXPECT_TRUE(common::DecodeProjection(&rin, &pr2).ok());
    EXPECT_TRUE(common::DecodeAggregate(&rin, &a2).ok());
    EXPECT_TRUE(common::DecodeAggregateList(&rin, &l2).ok());
    EXPECT_TRUE(rin.empty());
    EXPECT_TRUE(SamePredicate(p2, p));
    EXPECT_TRUE(SameProjection(pr2, pr));
    EXPECT_TRUE(SameAggs({a2}, {a}));
    EXPECT_TRUE(SameAggs(l2, l));
    return true;
  });
}

// ------------------------------------------------------------ block frames

TEST(WireFuzzTest, BlockFrame) {
  std::string payload;
  for (int i = 0; i < 200; i++) payload += "record-" + std::to_string(i % 7);
  xlog::LogBlock block = xlog::LogBlock::Make(4096, payload, {0, 3, 9});
  xlog::LogBlock small = xlog::LogBlock::Make(77, "x", {});
  Fuzz({xlog::EncodeBlockFrame(block, /*compress=*/true),
        xlog::EncodeBlockFrame(block, /*compress=*/false),
        xlog::EncodeBlockFrame(small, /*compress=*/false)},
       11, [](const std::string& f) {
         xlog::LogBlock out;
         if (!xlog::DecodeBlockFrame(Slice(f), &out).ok()) return false;
         for (bool zip : {false, true}) {
           xlog::LogBlock again;
           EXPECT_TRUE(xlog::DecodeBlockFrame(
                           Slice(xlog::EncodeBlockFrame(out, zip)), &again)
                           .ok());
           EXPECT_EQ(again.start_lsn, out.start_lsn);
           EXPECT_EQ(again.payload(), out.payload());
           EXPECT_EQ(again.partitions(), out.partitions());
         }
         return true;
       });
}

// ------------------------------------------------------------- log records

bool SameRecord(const engine::LogRecord& a, const engine::LogRecord& b) {
  return a.type == b.type && a.txn_id == b.txn_id &&
         a.page_id == b.page_id && a.key == b.key && a.value == b.value &&
         a.child == b.child && a.page_type == b.page_type &&
         a.level == b.level && a.low_fence == b.low_fence &&
         a.high_fence == b.high_fence && a.right_sibling == b.right_sibling &&
         a.commit_ts == b.commit_ts && a.next_page_id == b.next_page_id;
}

// Decodes one record payload; an OK decode must survive encode→decode
// unchanged.
bool CheckRecord(Slice payload) {
  engine::LogRecord out;
  if (!engine::LogRecord::Decode(payload, &out).ok()) return false;
  engine::LogRecord again;
  EXPECT_TRUE(engine::LogRecord::Decode(Slice(out.Encode()), &again).ok());
  EXPECT_TRUE(SameRecord(again, out));
  return true;
}

TEST(WireFuzzTest, LogRecord) {
  using engine::LogRecordType;
  // One valid record of every type.
  std::vector<std::string> records;
  for (uint8_t t = static_cast<uint8_t>(LogRecordType::kPageFormat);
       t <= static_cast<uint8_t>(LogRecordType::kCheckpoint); t++) {
    engine::LogRecord r;
    r.type = static_cast<LogRecordType>(t);
    r.txn_id = 7 + t;
    r.page_id = 100 + t;
    r.key = 0xABCD0000ull + t;
    r.child = 55;
    r.page_type = 2;
    r.level = 1;
    r.low_fence = 10;
    r.high_fence = 9000;
    r.right_sibling = 101;
    r.commit_ts = 4242;
    r.next_page_id = 300;
    if (r.type == LogRecordType::kPageImage) {
      storage::Page page = MakePage(r.page_id, 'i');
      r.value.assign(page.data(), kPageSize);
    } else {
      r.value = "chain-bytes-" + std::to_string(t);
    }
    records.push_back(r.Encode());
  }
  ASSERT_EQ(records.size(), 8u);
  Fuzz(records, 12, [](const std::string& f) { return CheckRecord(Slice(f)); });

  // Several framed records in one stream, with forged frame lengths:
  // ForEachRecord must hand the visitor only slices inside the input, at
  // the LSN of their frame, and stop (OK or Corruption) on bad framing.
  // The 8 KiB page image stays out so the stream is mostly frame headers.
  std::string stream;
  for (int i = 0; i < 3; i++) {
    for (const std::string& r : records) {
      if (r.size() < 100) engine::FrameRecord(&stream, Slice(r));
    }
  }
  constexpr Lsn kStart = 5000;
  Fuzz({stream}, 13, [](const std::string& f) {
    const char* begin = f.data();
    const char* end = f.data() + f.size();
    Status s = engine::ForEachRecord(
        Slice(f), kStart, [&](Lsn lsn, Slice payload) {
          EXPECT_GE(payload.data(), begin + 4);
          EXPECT_LE(payload.data() + payload.size(), end);
          EXPECT_EQ(lsn, kStart + static_cast<Lsn>(payload.data() - begin) - 4);
          (void)CheckRecord(payload);
          return true;
        });
    return s.ok();
  });
}

}  // namespace
}  // namespace socrates
