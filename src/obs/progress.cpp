/// \file progress.cpp
/// \brief ProgressSink storage, wakeups, and frame JSON.

#include "obs/progress.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>

#include "io/json.h"

namespace ebmf::obs {

std::string progress_frame_json(const ProgressFrame& frame) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"progress\":true,\"seq\":%llu,\"seconds\":%.3f,"
                "\"incumbent_depth\":%llu,\"lower_bound\":%llu,\"gap\":%llu,"
                "\"conflicts\":%llu",
                static_cast<unsigned long long>(frame.seq), frame.seconds,
                static_cast<unsigned long long>(frame.incumbent_depth),
                static_cast<unsigned long long>(frame.lower_bound),
                static_cast<unsigned long long>(frame.gap),
                static_cast<unsigned long long>(frame.conflicts));
  std::string out = buf;
  if (!frame.phase.empty()) {
    out += ",\"phase\":\"" + io::json::escape(frame.phase) + "\"";
  }
  out += "}";
  return out;
}

struct ProgressSink::Impl {
  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  std::vector<ProgressFrame> frames;  ///< Newest kKeep, oldest first.
  std::uint64_t next_seq = 0;
  bool done = false;
};

std::shared_ptr<ProgressSink::Impl> ProgressSink::make_impl() {
  return std::make_shared<Impl>();
}

void ProgressSink::publish(ProgressFrame frame) {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    frame.seq = impl_->next_seq++;
    impl_->frames.push_back(std::move(frame));
    if (impl_->frames.size() > kKeep) {
      impl_->frames.erase(impl_->frames.begin());
    }
  }
  impl_->cv.notify_all();
}

void ProgressSink::finish() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->done = true;
  }
  impl_->cv.notify_all();
}

bool ProgressSink::finished() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->done;
}

std::vector<ProgressFrame> ProgressSink::frames() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->frames;
}

ProgressFrame ProgressSink::last() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->frames.empty() ? ProgressFrame{} : impl_->frames.back();
}

std::uint64_t ProgressSink::published() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->next_seq;
}

bool ProgressSink::wait_published(std::uint64_t seen, double seconds) const {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->cv.wait_for(
      lock, std::chrono::duration<double>(seconds < 0 ? 0 : seconds),
      [this, seen] { return impl_->done || impl_->next_seq > seen; });
  return impl_->done;
}

}  // namespace ebmf::obs
