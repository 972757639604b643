#include "src/net/framing.h"

#include <algorithm>

#include "src/common/byte_order.h"
#include "src/common/logging.h"
#include "src/memory/memory_manager.h"

namespace demi {

std::vector<Buffer> EncodeFrame(const SgArray& sga, MemoryManager* mem) {
  DEMI_CHECK(sga.total_bytes() <= kMaxFrameBody);
  Buffer header = mem != nullptr ? mem->AllocateHeader(4) : Buffer::Allocate(4);
  ByteWriter w(header.mutable_span());
  w.U32(static_cast<std::uint32_t>(sga.total_bytes()));
  std::vector<Buffer> parts;
  parts.reserve(1 + sga.segment_count());
  parts.push_back(std::move(header));
  for (const Buffer& seg : sga) {
    if (!seg.empty()) {
      parts.push_back(seg);
    }
  }
  return parts;
}

std::uint32_t DecodeResponseBytes(const std::uint8_t header[kResponseHeaderBytes]) {
  const std::uint32_t raw = static_cast<std::uint32_t>(header[0]) |
                            static_cast<std::uint32_t>(header[1]) << 8 |
                            static_cast<std::uint32_t>(header[2]) << 16 |
                            static_cast<std::uint32_t>(header[3]) << 24;
  return std::clamp<std::uint32_t>(raw, 1, kMaxResponseBytes);
}

void FrameDecoder::Feed(Buffer chunk) {
  if (chunk.empty()) {
    return;
  }
  avail_ += chunk.size();
  pending_.push_back(std::move(chunk));
}

bool FrameDecoder::ConsumeInto(std::span<std::byte> out) {
  if (avail_ < out.size()) {
    return false;
  }
  std::size_t at = 0;
  while (at < out.size()) {
    Buffer& front = pending_.front();
    const std::size_t take = std::min(front.size(), out.size() - at);
    std::memcpy(out.data() + at, front.data(), take);
    at += take;
    if (take == front.size()) {
      pending_.pop_front();
    } else {
      front = front.Slice(take);
    }
  }
  avail_ -= out.size();
  return true;
}

Result<std::optional<SgArray>> FrameDecoder::Next() {
  if (poisoned_) {
    return ProtocolError("frame length exceeds limit");
  }
  if (!have_len_) {
    std::byte len_bytes[4];
    if (!ConsumeInto(len_bytes)) {
      return std::optional<SgArray>(std::nullopt);
    }
    ByteReader r(len_bytes);
    body_len_ = r.U32();
    if (body_len_ > kMaxFrameBody) {
      poisoned_ = true;
      return ProtocolError("frame length exceeds limit");
    }
    have_len_ = true;
  }
  if (avail_ < body_len_) {
    return std::optional<SgArray>(std::nullopt);
  }
  SgArray out;
  std::size_t need = body_len_;
  while (need > 0) {
    Buffer& front = pending_.front();
    const std::size_t take = std::min(front.size(), need);
    out.Append(front.Slice(0, take));  // zero-copy
    need -= take;
    if (take == front.size()) {
      pending_.pop_front();
    } else {
      front = front.Slice(take);
    }
  }
  avail_ -= body_len_;
  have_len_ = false;
  return std::optional<SgArray>(std::move(out));
}

}  // namespace demi
