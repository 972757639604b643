// Unit tests for src/common: Status/Result, Buffer slicing & refcounts, RingBuffer
// FIFO invariants, the lazily allocated growable Fifo, ObjectPool reuse, byte-order codecs, checksums, histograms, and the
// deterministic random sources (including Zipf skew properties).

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/byte_order.h"
#include "src/common/checksum.h"
#include "src/common/fifo.h"
#include "src/common/histogram.h"
#include "src/common/pool.h"
#include "src/common/random.h"
#include "src/common/result.h"
#include "src/common/ring_buffer.h"
#include "src/common/status.h"

namespace demi {
namespace {

// --- Status / Result ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgument("bad qd");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "invalid_argument: bad qd");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int i = 0; i <= static_cast<int>(ErrorCode::kInternal); ++i) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(i)), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) {
    return InvalidArgument("odd");
  }
  return x / 2;
}

Result<int> QuarterEven(int x) {
  ASSIGN_OR_RETURN(int half, HalveEven(x));
  ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*QuarterEven(8), 2);
  EXPECT_EQ(QuarterEven(6).code(), ErrorCode::kInvalidArgument);
}

// --- Buffer ---

TEST(BufferTest, EmptyBuffer) {
  Buffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.data(), nullptr);
}

TEST(BufferTest, CopyOfString) {
  Buffer b = Buffer::CopyOf("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.AsStringView(), "hello");
}

TEST(BufferTest, SliceSharesStorage) {
  Buffer b = Buffer::CopyOf("hello world");
  Buffer s = b.Slice(6, 5);
  EXPECT_EQ(s.AsStringView(), "world");
  EXPECT_EQ(s.storage(), b.storage());
  EXPECT_EQ(b.use_count(), 2);
}

TEST(BufferTest, SliceClampsToBounds) {
  Buffer b = Buffer::CopyOf("abc");
  EXPECT_EQ(b.Slice(1, 100).AsStringView(), "bc");
  EXPECT_TRUE(b.Slice(10, 5).empty());
}

TEST(BufferTest, RefcountDropsWhenViewsDie) {
  Buffer b = Buffer::CopyOf("data");
  {
    Buffer v = b.Slice(0, 2);
    EXPECT_EQ(b.use_count(), 2);
  }
  EXPECT_EQ(b.use_count(), 1);
}

TEST(BufferTest, MutationVisibleThroughSlices) {
  Buffer b = Buffer::Allocate(4);
  std::memcpy(b.mutable_data(), "aaaa", 4);
  Buffer s = b.Slice(2, 2);
  b.mutable_data()[2] = std::byte{'z'};
  EXPECT_EQ(s.AsStringView(), "za");
}

TEST(BufferTest, ConcatCopy) {
  std::vector<Buffer> parts = {Buffer::CopyOf("foo"), Buffer(), Buffer::CopyOf("bar")};
  EXPECT_EQ(ConcatCopy(parts).AsStringView(), "foobar");
}

// --- RingBuffer ---

TEST(RingBufferTest, CapacityRoundsToPowerOfTwo) {
  RingBuffer<int> r(100);
  EXPECT_EQ(r.capacity(), 128u);
}

TEST(RingBufferTest, FifoOrder) {
  RingBuffer<int> r(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(r.Push(i));
  }
  EXPECT_TRUE(r.full());
  EXPECT_FALSE(r.Push(99));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(r.Pop(), i);
  }
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.Pop(), std::nullopt);
}

TEST(RingBufferTest, WraparoundManyTimes) {
  RingBuffer<int> r(8);
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    while (!r.full()) {
      ASSERT_TRUE(r.Push(next_in++));
    }
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(r.Pop(), next_out++);
    }
  }
}

TEST(RingBufferTest, FrontPeeksWithoutConsuming) {
  RingBuffer<std::string> r(2);
  ASSERT_TRUE(r.Push("x"));
  ASSERT_NE(r.Front(), nullptr);
  EXPECT_EQ(*r.Front(), "x");
  EXPECT_EQ(r.size(), 1u);
}

// --- Fifo ---

// Checks `f` holds exactly `ref`, front to back, through both operator[] and iteration.
template <typename T>
void ExpectSame(const Fifo<T>& f, const std::deque<T>& ref) {
  ASSERT_EQ(f.size(), ref.size());
  ASSERT_EQ(f.empty(), ref.empty());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(f[i], ref[i]) << "index " << i;
  }
  std::size_t i = 0;
  for (const T& v : f) {
    ASSERT_EQ(v, ref[i++]);
  }
  if (!ref.empty()) {
    EXPECT_EQ(f.front(), ref.front());
    EXPECT_EQ(f.back(), ref.back());
  }
}

TEST(FifoTest, MatchesDequeOverRandomPushPopErase) {
  Rng rng(7);
  Fifo<int> f;
  std::deque<int> ref;
  int next = 0;
  std::size_t max_capacity = 0;
  for (int step = 0; step < 20000; ++step) {
    // Phases of net growth and net drain so the ring wraps and regrows repeatedly.
    const bool growing = (step / 1000) % 2 == 0;
    const std::uint64_t roll = rng.NextBelow(100);
    if (roll < (growing ? 60u : 35u)) {
      f.push_back(next);
      ref.push_back(next);
      ++next;
    } else if (roll < 90 && !ref.empty()) {
      f.pop_front();
      ref.pop_front();
    } else if (!ref.empty()) {
      const std::size_t at = rng.NextBelow(ref.size());
      auto it = f.begin();
      for (std::size_t k = 0; k < at; ++k) {
        ++it;
      }
      auto after = f.erase(it);
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(at));
      EXPECT_EQ(after == f.end(), at == ref.size());
      if (at < ref.size()) {
        EXPECT_EQ(*after, ref[at]);
      }
    }
    ExpectSame(f, ref);
    max_capacity = std::max(max_capacity, f.capacity());
  }
  EXPECT_GE(max_capacity, 64u);  // grew through several doublings
}

TEST(FifoTest, WrapsBeforeGrowing) {
  Fifo<int> f;
  f.push_back(0);
  EXPECT_EQ(f.capacity(), 4u);  // the first push allocates 4 slots
  int next_in = 1, next_out = 0;
  for (int round = 0; round < 100; ++round) {
    while (f.size() < 4) {
      f.push_back(next_in++);
    }
    EXPECT_EQ(f.front(), next_out++);
    f.pop_front();
  }
  EXPECT_EQ(f.capacity(), 4u);  // a ring that never overfills never regrows
  f.push_back(next_in++);
  f.push_back(next_in++);
  EXPECT_EQ(f.capacity(), 8u);
  for (int expect = next_out; !f.empty(); ++expect) {
    EXPECT_EQ(f.front(), expect);
    f.pop_front();
  }
}

TEST(FifoTest, EraseFirstMiddleLast) {
  Fifo<int> f;
  for (int i = 0; i < 6; ++i) {
    f.push_back(i);
  }
  auto it = f.erase(f.begin());  // first
  EXPECT_EQ(*it, 1);
  ExpectSame<int>(f, {1, 2, 3, 4, 5});
  it = f.begin();
  ++it;
  ++it;
  it = f.erase(it);  // middle (3)
  EXPECT_EQ(*it, 4);
  ExpectSame<int>(f, {1, 2, 4, 5});
  it = f.begin();
  for (int k = 0; k < 3; ++k) {
    ++it;
  }
  it = f.erase(it);  // last
  EXPECT_TRUE(it == f.end());
  ExpectSame<int>(f, {1, 2, 4});
}

TEST(FifoTest, HoldsMoveOnlyElements) {
  Fifo<std::unique_ptr<int>> f;
  for (int i = 0; i < 10; ++i) {
    f.push_back(std::make_unique<int>(i));
  }
  f.erase(f.begin());
  std::unique_ptr<int> first = std::move(f.front());
  f.pop_front();
  EXPECT_EQ(*first, 1);
  Fifo<std::unique_ptr<int>> moved = std::move(f);
  ASSERT_EQ(moved.size(), 8u);
  for (int i = 2; i < 10; ++i) {
    EXPECT_EQ(*moved.front(), i);
    moved.pop_front();
  }
}

TEST(FifoTest, EmptyAndMovedFromHoldNoStorage) {
  Fifo<Buffer> f;
  EXPECT_EQ(f.capacity(), 0u);
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.begin() == f.end());
  f.push_back(Buffer::CopyOf("x"));
  EXPECT_EQ(f.capacity(), 4u);
  Fifo<Buffer> g(std::move(f));
  EXPECT_EQ(f.capacity(), 0u);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_TRUE(f.empty());
  Fifo<Buffer> h;
  h = std::move(g);
  EXPECT_EQ(g.capacity(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(h.front().AsStringView(), "x");
}

TEST(FifoTest, ReleasesEveryElement) {
  Buffer b = Buffer::CopyOf("payload");
  {
    Fifo<Buffer> f;
    for (int i = 0; i < 5; ++i) {
      f.push_back(b);  // regrows from 4 to 8 slots with live elements
    }
    EXPECT_EQ(b.use_count(), 6);
    f.pop_front();
    EXPECT_EQ(b.use_count(), 5);
    f.erase(f.begin());
    EXPECT_EQ(b.use_count(), 4);
    f.clear();
    EXPECT_EQ(b.use_count(), 1);
    EXPECT_EQ(f.capacity(), 8u);  // clear keeps the slots
    f.push_back(b);
    f.push_back(b);
    EXPECT_EQ(b.use_count(), 3);
  }
  EXPECT_EQ(b.use_count(), 1);  // destruction released the last two
  auto shared = std::make_shared<int>(1);
  Fifo<std::shared_ptr<int>> a;
  a.push_back(shared);
  Fifo<std::shared_ptr<int>> c;
  c.push_back(shared);
  EXPECT_EQ(shared.use_count(), 3);
  a = std::move(c);  // move-assignment releases a's old element
  EXPECT_EQ(shared.use_count(), 2);
}

TEST(FifoTest, PushOfOwnElementSurvivesGrowth) {
  Fifo<std::string> f;
  for (int i = 0; i < 4; ++i) {
    f.push_back(std::string(32, static_cast<char>('a' + i)));
  }
  f.push_back(f.front());  // full: the argument lives in the slots being replaced
  ASSERT_EQ(f.size(), 5u);
  EXPECT_EQ(f.back(), std::string(32, 'a'));
}

// --- ObjectPool ---

TEST(ObjectPoolTest, ReusesReleasedObjects) {
  ObjectPool<int> pool(4);
  int* a = pool.Acquire();
  pool.Release(a);
  int* b = pool.Acquire();
  EXPECT_EQ(a, b);  // LIFO free list reuses the hot object
  EXPECT_EQ(pool.live(), 1u);
}

TEST(ObjectPoolTest, GrowsInChunks) {
  ObjectPool<int> pool(2);
  std::set<int*> ptrs;
  for (int i = 0; i < 7; ++i) {
    ptrs.insert(pool.Acquire());
  }
  EXPECT_EQ(ptrs.size(), 7u);
  EXPECT_EQ(pool.allocated(), 8u);  // 4 chunks of 2
}

// --- ByteWriter / ByteReader ---

TEST(ByteOrderTest, RoundTripAllWidths) {
  Buffer b = Buffer::Allocate(15);
  ByteWriter w(b.mutable_span());
  w.U8(0xAB);
  w.U16(0x1234);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFULL);
  ByteReader r(b.span());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteOrderTest, BigEndianLayout) {
  Buffer b = Buffer::Allocate(2);
  ByteWriter w(b.mutable_span());
  w.U16(0x0102);
  EXPECT_EQ(std::to_integer<int>(b.span()[0]), 1);
  EXPECT_EQ(std::to_integer<int>(b.span()[1]), 2);
}

// --- Checksums ---

TEST(ChecksumTest, InternetChecksumKnownVector) {
  // RFC 1071 example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  const std::uint16_t csum = InternetChecksum(std::as_bytes(std::span(data)));
  EXPECT_EQ(csum, 0x220d);
}

TEST(ChecksumTest, ChecksumOfDataPlusChecksumIsZero) {
  Buffer b = Buffer::CopyOf("the quick brown fox!");  // even length
  const std::uint16_t csum = InternetChecksum(b.span());
  Buffer with = Buffer::Allocate(b.size() + 2);
  std::memcpy(with.mutable_data(), b.data(), b.size());
  with.mutable_data()[b.size()] = std::byte{static_cast<std::uint8_t>(csum >> 8)};
  with.mutable_data()[b.size() + 1] = std::byte{static_cast<std::uint8_t>(csum & 0xFF)};
  EXPECT_EQ(InternetChecksum(with.span()), 0);
}

TEST(ChecksumTest, AccumulatorMatchesFlatChecksumForEverySplit) {
  // The scatter-gather TX path (WriteTcpHeaderSg over a FrameChain) checksums the
  // payload part by part via ChecksumAccumulator. RFC 1071 is positional — bytes
  // alternate high/low in the 16-bit words — so an odd-length part shifts the parity
  // of everything after it. Every 2-part and 3-part split of a buffer, odd or even,
  // must fold to exactly the flat single-span checksum.
  std::uint8_t raw[31];
  for (std::size_t i = 0; i < sizeof(raw); ++i) {
    raw[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const auto data = std::as_bytes(std::span(raw));
  const std::uint16_t flat = InternetChecksum(data);

  for (std::size_t a = 0; a <= data.size(); ++a) {
    ChecksumAccumulator acc2;
    acc2.Add(data.subspan(0, a));
    acc2.Add(data.subspan(a));
    EXPECT_EQ(acc2.Fold(), flat) << "2-part split at " << a;
    for (std::size_t b = a; b <= data.size(); ++b) {
      ChecksumAccumulator acc3;
      acc3.Add(data.subspan(0, a));
      acc3.Add(data.subspan(a, b - a));
      acc3.Add(data.subspan(b));
      ASSERT_EQ(acc3.Fold(), flat) << "3-part split at " << a << "," << b;
    }
  }
}

TEST(ChecksumTest, Crc32cKnownVector) {
  // "123456789" -> 0xE3069283 (iSCSI test vector).
  Buffer b = Buffer::CopyOf("123456789");
  EXPECT_EQ(Crc32c(b.span()), 0xE3069283u);
}

TEST(ChecksumTest, Crc32cDetectsBitFlip) {
  Buffer b = Buffer::CopyOf("some storage payload");
  const std::uint32_t good = Crc32c(b.span());
  b.mutable_data()[3] ^= std::byte{0x01};
  EXPECT_NE(Crc32c(b.span()), good);
}

// --- Histogram ---

TEST(HistogramTest, ExactForSmallValues) {
  Histogram h;
  for (std::uint64_t v = 0; v < 64; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(1.0), 63u);
}

TEST(HistogramTest, QuantilesWithinRelativePrecision) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) {
    h.Record(v);
  }
  // ~1.5% relative precision from the 64-sub-bucket layout.
  EXPECT_NEAR(static_cast<double>(h.P50()), 50000.0, 50000.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(h.P99()), 99000.0, 99000.0 * 0.02);
  EXPECT_EQ(h.max(), 100000u);
}

TEST(HistogramTest, MergeCombinesPopulations) {
  Histogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
}

// --- Rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64();
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(500.0);
  }
  EXPECT_NEAR(sum / n, 500.0, 15.0);
}

// --- Zipf ---

TEST(ZipfTest, UniformWhenThetaZero) {
  Rng rng(13);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[zipf.Next(rng)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 600);
  }
}

// Property sweep: for every skew level, draws stay in range and skew orders hot keys.
class ZipfSkewTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSkewTest, HotKeysDominateInProportionToTheta) {
  const double theta = GetParam();
  Rng rng(17);
  ZipfGenerator zipf(1000, theta);
  std::map<std::uint64_t, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t k = zipf.Next(rng);
    ASSERT_LT(k, 1000u);
    ++counts[k];
  }
  // Rank 0 must be the hottest key for any positive skew.
  int max_count = 0;
  for (const auto& [k, c] : counts) {
    max_count = std::max(max_count, c);
  }
  EXPECT_EQ(counts[0], max_count);
  // Hotter theta concentrates more mass on the top key.
  const double top_frac = static_cast<double>(counts[0]) / n;
  if (theta >= 0.99) {
    EXPECT_GT(top_frac, 0.05);
  } else if (theta >= 0.5) {
    EXPECT_GT(top_frac, 0.005);
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSkewTest, ::testing::Values(0.2, 0.5, 0.8, 0.99));

}  // namespace
}  // namespace demi
