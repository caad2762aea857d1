#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>

namespace e2e::spans {

namespace {

std::atomic<bool> g_on{false};
std::atomic<std::uint32_t> g_next_thread{0};

std::mutex g_mu;
std::vector<Span> g_spans;                 // guarded by g_mu
std::thread::id g_root_thread;             // guarded by g_mu
std::vector<std::int64_t> g_root_stack;    // guarded by g_mu

thread_local std::vector<std::int64_t> t_stack;
thread_local std::uint32_t t_thread = UINT32_MAX;

std::uint32_t thread_number() {
  if (t_thread == UINT32_MAX) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_enabled(bool on) {
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    g_root_thread = std::this_thread::get_id();
  }
  g_on.store(on, std::memory_order_relaxed);
}

bool enabled() { return g_on.load(std::memory_order_relaxed); }

Scope::Scope(const char* name) {
  if (!enabled()) return;
  const std::uint32_t thread = thread_number();
  const std::lock_guard<std::mutex> lock(g_mu);
  const bool root = std::this_thread::get_id() == g_root_thread;
  std::vector<std::int64_t>& stack = root ? g_root_stack : t_stack;
  std::int64_t parent = -1;
  if (!stack.empty()) {
    parent = stack.back();
  } else if (!g_root_stack.empty()) {
    parent = g_root_stack.back();
  }
  id_ = static_cast<std::int64_t>(g_spans.size());
  g_spans.push_back(Span{name, now_ns(), 0, parent, thread});
  stack.push_back(id_);
}

Scope::~Scope() {
  if (id_ < 0) return;
  const std::uint64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(g_mu);
  g_spans[static_cast<std::size_t>(id_)].end_ns = end;
  const bool root = std::this_thread::get_id() == g_root_thread;
  std::vector<std::int64_t>& stack = root ? g_root_stack : t_stack;
  if (!stack.empty() && stack.back() == id_) stack.pop_back();
}

std::vector<Span> snapshot() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

std::size_t mark() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_spans.size();
}

std::map<std::string, double> total_seconds(const std::vector<Span>& all,
                                            std::size_t first) {
  std::map<std::string, double> out;
  for (std::size_t i = first; i < all.size(); ++i) {
    out[all[i].name] += static_cast<double>(all[i].end_ns - all[i].start_ns) *
                        1e-9;
  }
  return out;
}

std::map<std::string, double> self_seconds(const std::vector<Span>& all,
                                           std::size_t first) {
  // Children's intervals per parent, clipped to the parent and merged, so
  // overlapping children (a visitor on a worker while the caller waits)
  // are subtracted once.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      all.size());
  for (std::size_t i = first; i < all.size(); ++i) {
    const std::int64_t p = all[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) >= first) {
      kids[static_cast<std::size_t>(p)].emplace_back(all[i].start_ns,
                                                     all[i].end_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = first; i < all.size(); ++i) {
    const Span& s = all[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_begin = 0;
    std::uint64_t cur_end = 0;
    bool open = false;
    for (auto [b, e] : iv) {
      b = std::clamp(b, s.start_ns, s.end_ns);
      e = std::clamp(e, s.start_ns, s.end_ns);
      if (open && b <= cur_end) {
        cur_end = std::max(cur_end, e);
        continue;
      }
      if (open) covered += cur_end - cur_begin;
      cur_begin = b;
      cur_end = e;
      open = true;
    }
    if (open) covered += cur_end - cur_begin;
    out[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

bool write_json(const std::string& path, const std::vector<Span>& all) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\": [\n", f);
  const std::uint64_t t0 = all.empty() ? 0 : all.front().start_ns;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"parent\": %lld, \"thread\": %u}%s\n",
                 i, s.name,
                 static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(s.end_ns - t0),
                 static_cast<long long>(s.parent), s.thread,
                 i + 1 < all.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2e::spans
