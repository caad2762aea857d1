// Internal: the block line reader both text ingest formats walk (VCF in
// io/vcf_lite.cpp, ms in io/ms_format.cpp).
#pragma once

#include <cstddef>
#include <cstring>
#include <istream>
#include <vector>

namespace ldla::detail {

/// Bytes asked of the stream per read. The differential tests place line
/// ends around multiples of it and hard-code the value.
inline constexpr std::size_t kLineBlockBytes = std::size_t{1} << 20;

/// Calls on_line(begin, end) for every '\n'-terminated line of `in`, in
/// order, without its '\n'; a last line that lacks one is handed over too
/// (an empty tail after the final '\n' is not a line, as with
/// std::getline). The stream is read with istream::read in
/// kLineBlockBytes blocks: the unfinished line at a block's end moves to
/// the front of the buffer and the next block is appended after it, and a
/// line longer than the buffer grows it by one block. [begin, end) lives in
/// that buffer and is valid only during the call.
template <class OnLine>
void for_each_line(std::istream& in, OnLine&& on_line) {
  std::vector<char> buf(kLineBlockBytes);
  std::size_t held = 0;  // bytes of an unfinished line at the front of buf
  for (;;) {
    if (buf.size() - held < kLineBlockBytes) buf.resize(held + kLineBlockBytes);
    in.read(buf.data() + held, static_cast<std::streamsize>(kLineBlockBytes));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    const char* line = buf.data();
    const char* const end = line + held + got;
    const char* scan = line + held;  // the held bytes hold no '\n'
    while (const void* nl = std::memchr(scan, '\n',
                                        static_cast<std::size_t>(end - scan))) {
      on_line(line, static_cast<const char*>(nl));
      line = static_cast<const char*>(nl) + 1;
      scan = line;
    }
    held = static_cast<std::size_t>(end - line);
    std::memmove(buf.data(), line, held);
  }
  if (held != 0) on_line(buf.data(), buf.data() + held);
}

}  // namespace ldla::detail
