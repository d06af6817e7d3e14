// evbuffer-style paged byte queue for the service wire path.
//
// The seed wire path assembled every outbound message into one contiguous
// std::string (copy the payload, append the newline, loop over send()) and
// accumulated inbound bytes into a second string that was erased from the
// front after every parsed line — both O(message) copies per message, per
// connection. PagedBuffer replaces that with a chain of fixed-size pages:
//
//  * append()       copies into the tail page's free space (bounded copy,
//                   no reallocation of earlier bytes);
//  * add_reference  adopts an existing std::string as a page of its own —
//                   the zero-copy path for responses, which the JSON dumper
//                   already materialised as one string;
//  * peek_space / commit_space expose the tail page's free space directly
//                   to recv(), so reads land in place;
//  * flush_to()     gathers up to kMaxIov leading pages into one vectored
//                   sendmsg(MSG_NOSIGNAL) (writev when the fd is not a
//                   socket), draining exactly the bytes the kernel took;
//  * drain()/find() give the line framer O(new bytes) scanning without
//                   front erasure.
//
// LineFramer sits on top for the newline-delimited protocol: feed bytes
// into buffer(), then pull complete lines; a line that exceeds the
// configured bound reports Overflow instead of growing without bound.
// read_lines() and write_line() are the whole wire loop on a socket, shared
// by the daemons' client connections and the router's worker connections.
//
// Single-owner, externally synchronised (connections guard their outbound
// buffer with the existing per-connection write mutex).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "base/checked_math.hpp"

namespace buffy::service {

class PagedBuffer {
 public:
  /// Default page granularity; append() never copies more than a page at a
  /// time and flush_to() gathers whole pages.
  static constexpr std::size_t kPageSize = 4096;
  /// Pages gathered into one vectored flush.
  static constexpr std::size_t kMaxIov = 64;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Copies `n` bytes onto the tail of the chain.
  void append(const void* data, std::size_t n);
  void append(std::string_view text) { append(text.data(), text.size()); }

  /// Adopts `text` as one page of its own — no copy. The zero-copy path
  /// for already-materialised payloads (response JSON).
  void add_reference(std::string&& text);

  /// Exposes at least `min_bytes` of writable tail space (growing the
  /// chain if needed) without committing it; pair with commit_space()
  /// after the bytes were produced (recv() into the span).
  [[nodiscard]] std::span<char> peek_space(std::size_t min_bytes);

  /// Commits `n` bytes previously obtained from peek_space().
  void commit_space(std::size_t n);

  /// Drops the first `n` bytes.
  void drain(std::size_t n);

  /// Offset of the first `needle` at or after `from`, or -1. O(bytes
  /// scanned), memchr per page.
  [[nodiscard]] std::ptrdiff_t find(char needle, std::size_t from) const;

  /// Copies the first `n` bytes out (the framer's line extraction).
  [[nodiscard]] std::string copy_out(std::size_t n) const;

  /// Copies the whole contents (tests / diagnostics).
  [[nodiscard]] std::string str() const { return copy_out(size_); }

  /// One vectored write of the leading pages to `fd`: sendmsg with
  /// MSG_NOSIGNAL, falling back to writev when `fd` is not a socket
  /// (pipes/files in tests). Drains exactly the bytes written. Returns
  /// the byte count (0 when empty), or -1 with errno set.
  std::ptrdiff_t flush_to(int fd);

 private:
  struct Page {
    std::string data;        // storage; capacity fixed at creation
    std::size_t begin = 0;   // first live byte
    std::size_t end = 0;     // one past the last live byte
  };

  Page& writable_tail(std::size_t min_free);

  std::deque<Page> pages_;
  std::size_t size_ = 0;
};

/// Newline-delimited framing over a PagedBuffer with a hard line bound.
class LineFramer {
 public:
  enum class Status {
    Line,      ///< a complete line was extracted
    NeedMore,  ///< no newline yet; feed more bytes
    Overflow,  ///< the unterminated prefix exceeds max_line_bytes
  };

  explicit LineFramer(std::size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  /// The underlying buffer; feed inbound bytes via peek_space/commit_space
  /// or append.
  [[nodiscard]] PagedBuffer& buffer() { return buf_; }

  /// Extracts the next complete line (newline stripped, plus one trailing
  /// '\r' if present) into `line`. Scanning resumes where the previous
  /// call stopped, so repeated NeedMore feeds stay O(new bytes).
  [[nodiscard]] Status next_line(std::string& line);

 private:
  PagedBuffer buf_;
  std::size_t scanned_ = 0;  // prefix known to hold no newline
  std::size_t max_line_bytes_;
};

/// Reads `fd` until EOF or a receive error, handing every non-blank line
/// to `on_line` (recv lands in the framer's pages in place). Returns false
/// when a line exceeded `max_line_bytes` — reading stops there — and true
/// at EOF.
bool read_lines(int fd, std::size_t max_line_bytes,
                const std::function<void(const std::string&)>& on_line);

/// Sends `line` plus the newline on `fd`, adopting the string as a page
/// (zero-copy). False when the send failed (the peer is gone or a send
/// timeout expired). The caller serialises writers of one fd.
[[nodiscard]] bool write_line(int fd, std::string line);

}  // namespace buffy::service
