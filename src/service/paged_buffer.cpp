#include "service/paged_buffer.hpp"

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "base/diagnostics.hpp"

namespace buffy::service {

PagedBuffer::Page& PagedBuffer::writable_tail(std::size_t min_free) {
  if (!pages_.empty()) {
    Page& tail = pages_.back();
    if (tail.data.size() - tail.end >= min_free) return tail;
  }
  Page page;
  page.data.resize(std::max(kPageSize, min_free));
  pages_.push_back(std::move(page));
  return pages_.back();
}

void PagedBuffer::append(const void* data, std::size_t n) {
  const char* src = static_cast<const char*>(data);
  while (n > 0) {
    Page& tail = writable_tail(1);
    const std::size_t take = std::min(n, tail.data.size() - tail.end);
    std::memcpy(tail.data.data() + tail.end, src, take);
    tail.end += take;
    size_ += take;
    src += take;
    n -= take;
  }
}

void PagedBuffer::add_reference(std::string&& text) {
  if (text.empty()) return;
  Page page;
  page.end = text.size();
  page.data = std::move(text);
  size_ += page.end;
  pages_.push_back(std::move(page));
}

std::span<char> PagedBuffer::peek_space(std::size_t min_bytes) {
  BUFFY_ASSERT(min_bytes > 0, "peek_space needs a positive request");
  Page& tail = writable_tail(min_bytes);
  return {tail.data.data() + tail.end, tail.data.size() - tail.end};
}

void PagedBuffer::commit_space(std::size_t n) {
  if (n == 0) return;
  BUFFY_ASSERT(!pages_.empty(), "commit_space without peek_space");
  Page& tail = pages_.back();
  BUFFY_ASSERT(n <= tail.data.size() - tail.end,
               "commit_space beyond the peeked span");
  tail.end += n;
  size_ += n;
}

void PagedBuffer::drain(std::size_t n) {
  BUFFY_ASSERT(n <= size_, "drain beyond buffer size");
  size_ -= n;
  while (n > 0) {
    Page& head = pages_.front();
    const std::size_t live = head.end - head.begin;
    if (n < live) {
      head.begin += n;
      return;
    }
    n -= live;
    pages_.pop_front();
  }
}

std::ptrdiff_t PagedBuffer::find(char needle, std::size_t from) const {
  std::size_t offset = 0;
  for (const Page& page : pages_) {
    const std::size_t live = page.end - page.begin;
    if (from < live) {
      const char* base = page.data.data() + page.begin + from;
      const void* hit = std::memchr(base, needle, live - from);
      if (hit != nullptr) {
        return static_cast<std::ptrdiff_t>(
            offset + from +
            static_cast<std::size_t>(static_cast<const char*>(hit) - base));
      }
      from = 0;
    } else {
      from -= live;
    }
    offset += live;
  }
  return -1;
}

std::string PagedBuffer::copy_out(std::size_t n) const {
  BUFFY_ASSERT(n <= size_, "copy_out beyond buffer size");
  std::string out;
  out.reserve(n);
  for (const Page& page : pages_) {
    if (n == 0) break;
    const std::size_t take = std::min(n, page.end - page.begin);
    out.append(page.data.data() + page.begin, take);
    n -= take;
  }
  return out;
}

std::ptrdiff_t PagedBuffer::flush_to(int fd) {
  if (size_ == 0) return 0;
  iovec iov[kMaxIov];
  std::size_t count = 0;
  for (const Page& page : pages_) {
    if (count == kMaxIov) break;
    const std::size_t live = page.end - page.begin;
    if (live == 0) continue;
    iov[count].iov_base =
        const_cast<char*>(page.data.data()) + page.begin;
    iov[count].iov_len = live;
    ++count;
  }
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  ssize_t written = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
  if (written < 0 && errno == ENOTSOCK) {
    // Pipes and regular files reject sendmsg; writev cannot suppress
    // SIGPIPE, but non-socket fds only appear in tests and tools that
    // ignore it process-wide.
    written = ::writev(fd, iov, static_cast<int>(count));
  }
  if (written < 0) return -1;
  drain(static_cast<std::size_t>(written));
  return written;
}

LineFramer::Status LineFramer::next_line(std::string& line) {
  const std::ptrdiff_t pos = buf_.find('\n', scanned_);
  if (pos < 0) {
    scanned_ = buf_.size();
    return scanned_ > max_line_bytes_ ? Status::Overflow : Status::NeedMore;
  }
  const std::size_t len = static_cast<std::size_t>(pos);
  if (len > max_line_bytes_) {
    scanned_ = buf_.size();
    return Status::Overflow;
  }
  line = buf_.copy_out(len);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  buf_.drain(len + 1);
  scanned_ = 0;
  return Status::Line;
}

bool read_lines(int fd, std::size_t max_line_bytes,
                const std::function<void(const std::string&)>& on_line) {
  LineFramer framer(max_line_bytes);
  std::string line;
  for (;;) {
    const std::span<char> space = framer.buffer().peek_space(4096);
    const ssize_t n = ::recv(fd, space.data(), space.size(), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return true;
    }
    framer.buffer().commit_space(static_cast<std::size_t>(n));
    for (;;) {
      const LineFramer::Status status = framer.next_line(line);
      if (status == LineFramer::Status::NeedMore) break;
      if (status == LineFramer::Status::Overflow) return false;
      if (line.find_first_not_of(" \t") != std::string::npos) on_line(line);
    }
  }
}

bool write_line(int fd, std::string line) {
  PagedBuffer out;
  out.add_reference(std::move(line));
  out.append("\n");
  while (!out.empty()) {
    if (out.flush_to(fd) < 0 && errno != EINTR) return false;
  }
  return true;
}

}  // namespace buffy::service
