#include "src/harness/ingress.h"

#include <chrono>

namespace sb7 {

bool IngressQueue::TryPush(const IngressRequest& request) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || queue_.size() >= capacity_) {
      ++rejected_;
      return false;
    }
    queue_.push_back(request);
    ++accepted_;
  }
  not_empty_.notify_one();
  return true;
}

size_t IngressQueue::PopBatch(std::vector<IngressRequest>* out,
                              size_t max_batch, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (queue_.empty() && !closed_ && timeout_ms > 0) {
    not_empty_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [this] { return !queue_.empty() || closed_; });
  }
  size_t popped = 0;
  while (popped < max_batch && !queue_.empty()) {
    out->push_back(queue_.front());
    queue_.pop_front();
    ++popped;
  }
  return popped;
}

void IngressQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
}

bool IngressQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

size_t IngressQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

uint64_t IngressQueue::accepted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accepted_;
}

uint64_t IngressQueue::rejected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rejected_;
}

}  // namespace sb7
