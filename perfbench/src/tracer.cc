#include <atomic>

#include "harness.h"

namespace quarry::perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

double NowMicros() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

std::atomic<int64_t> next_span_id{1};
std::atomic<uint64_t> next_request_id{1};
thread_local int64_t open_span = -1;
thread_local uint64_t open_request = 0;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Sample(const std::string& name, double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].push_back(value);
}

void Tracer::Add(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, std::vector<double>> Tracer::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

Span::Span(const char* name) {
  if (!Tracer::Get().enabled()) return;
  active_ = true;
  record_.name = name;
  record_.id = next_span_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = open_span;
  record_.request = open_span < 0
                        ? next_request_id.fetch_add(1,
                                                    std::memory_order_relaxed)
                        : open_request;
  saved_parent_ = open_span;
  saved_request_ = open_request;
  open_span = record_.id;
  open_request = record_.request;
  record_.start_us = NowMicros();
}

Span::~Span() {
  if (!active_) return;
  record_.end_us = NowMicros();
  open_span = saved_parent_;
  open_request = saved_request_;
  Tracer::Get().Add(std::move(record_));
}

}  // namespace quarry::perfbench
