#include "trace.h"

#include <atomic>
#include <cstdio>

#include "front/json.h"

namespace cacbench {

namespace {

std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

thread_local std::vector<std::uint64_t> open_stack;

}  // namespace

std::uint64_t Tracer::begin(const std::string& name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.thread = this_thread_index();
  s.parent = open_stack.empty() ? 0 : open_stack.back();
  s.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = next_id_++;
  open_stack.push_back(s.id);
  const std::uint64_t id = s.id;
  open_.emplace(id, std::move(s));
  return id;
}

double Tracer::end(std::uint64_t id) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return 0;
  Span s = std::move(it->second);
  open_.erase(it);
  s.end_us = now;
  const double us = s.end_us - s.start_us;
  Totals& t = totals_[s.name];
  ++t.count;
  t.total_us += us;
  ++closed_count_;
  if (closed_.size() < kMaxKept) closed_.push_back(std::move(s));
  return us;
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = totals_.find(name);
  return it == totals_.end() ? Totals{} : it->second;
}

std::uint64_t Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_count_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  cac::front::JsonWriter w;
  w.begin_obj().key("displayTimeUnit").value("ms").key("traceEvents").begin_arr();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : closed_) {
      w.begin_obj()
          .key("name").value(s.name)
          .key("ph").value("X")
          .key("pid").value(1)
          .key("tid").value(static_cast<std::uint64_t>(s.thread))
          .key("ts").value(static_cast<std::uint64_t>(s.start_us))
          .key("dur").value(static_cast<std::uint64_t>(s.end_us - s.start_us))
          .key("args").begin_obj()
          .key("id").value(s.id)
          .key("parent").value(s.parent)
          .key("request").value(s.request)
          .end_obj()
          .end_obj();
    }
  }
  w.end_arr().end_obj();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string text = w.take();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

Scope::Scope(Tracer* tracer, const std::string& name, std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->begin(name, request);
  start_ = std::chrono::steady_clock::now();
}

Scope::~Scope() { close(); }

double Scope::close() {
  if (!open_) return us_;
  open_ = false;
  us_ = std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start_)
            .count();
  if (tracer_ != nullptr) tracer_->end(id_);
  return us_;
}

}  // namespace cacbench
