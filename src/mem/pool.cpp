#include "mem/pool.hpp"

#include "util/check.hpp"

namespace hmr::mem {

void BufferPool::put(void* p, std::uint64_t bytes) {
  HMR_CHECK(p != nullptr && bytes > 0);
  classes_[bytes].push_back(p);
  pooled_bytes_ += bytes;
  ++pooled_buffers_;
}

void* BufferPool::get(std::uint64_t bytes) {
  auto it = classes_.find(bytes);
  if (it == classes_.end() || it->second.empty()) {
    ++misses_;
    return nullptr;
  }
  void* p = it->second.back();
  it->second.pop_back();
  pooled_bytes_ -= bytes;
  --pooled_buffers_;
  ++hits_;
  return p;
}

} // namespace hmr::mem
