#include "serve/admission_queue.h"

#include "util/check.h"

namespace comet {

AdmissionQueue::AdmissionQueue(int64_t capacity) : capacity_(capacity) {
  COMET_CHECK_GT(capacity_, 0);
  ring_.resize(static_cast<size_t>(capacity_));
}

void AdmissionQueue::PushBack(const RequestSpec& spec) {
  At(size_) = spec;
  ++size_;
}

RequestSpec AdmissionQueue::PopFront() {
  RequestSpec spec = At(0);
  head_ = (head_ + 1) % capacity_;
  --size_;
  return spec;
}

bool AdmissionQueue::TryPush(const RequestSpec& spec) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || size_ == capacity_) {
      ++total_shed_;
      return false;
    }
    PushBack(spec);
    queued_tokens_ += spec.TotalTokens();
    ++total_admitted_;
  }
  ready_.notify_one();
  return true;
}

std::optional<RequestSpec> AdmissionQueue::TryPop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (size_ == 0) {
    return std::nullopt;
  }
  RequestSpec spec = PopFront();
  queued_tokens_ -= spec.TotalTokens();
  return spec;
}

std::optional<RequestSpec> AdmissionQueue::Pop() {
  std::unique_lock<std::mutex> lock(mu_);
  ready_.wait(lock, [&] { return size_ > 0 || closed_; });
  if (size_ == 0) {
    return std::nullopt;
  }
  RequestSpec spec = PopFront();
  queued_tokens_ -= spec.TotalTokens();
  return spec;
}

std::optional<RequestSpec> AdmissionQueue::Remove(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int64_t pos = 0; pos < size_; ++pos) {
    if (At(pos).id == id) {
      RequestSpec spec = At(pos);
      // Close the gap in place, preserving FIFO order of the rest.
      for (int64_t p = pos; p + 1 < size_; ++p) {
        At(p) = At(p + 1);
      }
      --size_;
      queued_tokens_ -= spec.TotalTokens();
      return spec;
    }
  }
  return std::nullopt;
}

void AdmissionQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  ready_.notify_all();
}

int64_t AdmissionQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

int64_t AdmissionQueue::queued_tokens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_tokens_;
}

int64_t AdmissionQueue::total_admitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_admitted_;
}

int64_t AdmissionQueue::total_shed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_shed_;
}

}  // namespace comet
