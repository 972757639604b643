#include "src/load/workload.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

namespace demi {

namespace {

// Value size classes for the KV workload: mostly small values with a tail of large
// ones, the shape production caches report.
constexpr std::uint32_t kValueClasses[] = {64, 96, 128, 192, 256, 512, 1024, 4096};
constexpr std::size_t kNumValueClasses = sizeof(kValueClasses) / sizeof(kValueClasses[0]);

}  // namespace

WorkloadModel::WorkloadModel(WorkloadConfig cfg)
    : cfg_(cfg), zipf_(std::max<std::uint64_t>(cfg.kv_keys, 1), cfg.zipf_theta) {
  DEMI_CHECK(cfg_.request_bytes >= kResponseHeaderBytes);
  DEMI_CHECK(cfg_.request_bytes <= kMaxResponseBytes);  // echo responses slice the blob
  echo_request_ = BuildRequest(static_cast<std::uint32_t>(cfg_.request_bytes));
  kv_requests_.reserve(kNumValueClasses);
  for (std::uint32_t bytes : kValueClasses) {
    kv_requests_.push_back(BuildRequest(bytes));
  }
}

Buffer WorkloadModel::BuildRequest(std::uint32_t response_bytes) const {
  Buffer req = Buffer::Allocate(cfg_.request_bytes);
  std::memset(req.mutable_data(), 0, cfg_.request_bytes);
  std::uint8_t hdr[kResponseHeaderBytes] = {
      static_cast<std::uint8_t>(response_bytes),
      static_cast<std::uint8_t>(response_bytes >> 8),
      static_cast<std::uint8_t>(response_bytes >> 16),
      static_cast<std::uint8_t>(response_bytes >> 24),
  };
  std::memcpy(req.mutable_data(), hdr, kResponseHeaderBytes);
  return req;
}

std::uint32_t WorkloadModel::ValueBytes(std::uint64_t key) {
  return kValueClasses[SplitMix64(key) % kNumValueClasses];
}

WorkloadModel::Request WorkloadModel::Sample(Rng& rng) {
  if (cfg_.kind == WorkloadKind::kEcho) {
    return Request{echo_request_, static_cast<std::uint32_t>(cfg_.request_bytes)};
  }
  const std::uint64_t key = SampleKey(rng);
  const std::uint32_t bytes = ValueBytes(key);
  for (std::size_t i = 0; i < kNumValueClasses; ++i) {
    if (kValueClasses[i] == bytes) {
      return Request{kv_requests_[i], bytes};
    }
  }
  return Request{echo_request_, static_cast<std::uint32_t>(cfg_.request_bytes)};
}

}  // namespace demi
