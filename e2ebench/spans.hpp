// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent, thread) around one call into a
// library layer, recorded from the benchmark's own code — the library is
// not instrumented for it. Spans stay in memory until the run ends; then
// self times (duration minus the union of the children's intervals) are
// computed per name and the spans are written out as JSON.
//
// Parents: each thread keeps its own stack of open spans. A span opened on
// a thread with an empty stack (a visitor running on a pool worker inside
// a library call) is parented to the innermost open span of the thread
// that enabled recording, which is the thread that issued the call.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e::spans {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 = root
  std::uint32_t thread = 0;  ///< recorder-assigned thread number
};

/// Steady-clock nanoseconds.
std::uint64_t now_ns();

/// Start or stop recording. The thread that enables recording becomes the
/// fallback parent thread (see file comment).
void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// RAII span; a no-op while recording is off. `name` must be a literal.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int64_t id_ = -1;
};

/// Copy of every span recorded so far (call with no span open).
[[nodiscard]] std::vector<Span> snapshot();

/// Index of the first span recorded after this call (for slicing one job).
[[nodiscard]] std::size_t mark();

/// Self seconds per span name over spans [first, size) of `all`.
[[nodiscard]] std::map<std::string, double> self_seconds(
    const std::vector<Span>& all, std::size_t first = 0);

/// Total seconds per span name (durations, children included).
[[nodiscard]] std::map<std::string, double> total_seconds(
    const std::vector<Span>& all, std::size_t first = 0);

/// Write every span as JSON ({"spans": [...]}). Returns false on I/O error.
bool write_json(const std::string& path, const std::vector<Span>& all);

}  // namespace e2e::spans
