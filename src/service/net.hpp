// Minimal POSIX socket plumbing for the serving subsystem: an owning fd
// wrapper, full-buffer read/write loops that survive EINTR and short
// transfers, and frame-level send/receive built on the wire protocol.
//
// Only loopback TCP is supported deliberately -- fbcd is a measurement
// harness for the serving layer, not a hardened network daemon.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace fbc::service {

/// Owning file descriptor (close-on-destroy, move-only).
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) noexcept : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// Gives up ownership without closing.
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the descriptor (idempotent).
  void reset() noexcept;

  /// shutdown(SHUT_RDWR): unblocks any thread parked in read/write on this
  /// descriptor without racing the close.
  void shutdown_both() noexcept;

 private:
  int fd_ = -1;
};

/// Thrown on socket setup/teardown failures (errno text included).
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Listens on 127.0.0.1:`port` (0 picks an ephemeral port). On return
/// `*bound_port` holds the actual port.
[[nodiscard]] UniqueFd listen_loopback(std::uint16_t port,
                                       std::uint16_t* bound_port);

/// Connects to 127.0.0.1:`port`.
[[nodiscard]] UniqueFd connect_loopback(std::uint16_t port);

/// Disables Nagle on `fd` (best effort). Both connection ends need this:
/// with pipelined replies, a Nagled server socket holds its second
/// back-to-back small frame until the client's delayed ACK (~40ms on
/// Linux) -- the classic small-writes stall.
void set_nodelay(int fd) noexcept;

/// Writes all of `data`, retrying short writes and EINTR.
/// Returns false once the peer is gone (EPIPE/ECONNRESET).
[[nodiscard]] bool write_full(int fd, const std::uint8_t* data,
                              std::size_t len);

/// Reads exactly `len` bytes. Returns false on clean EOF before the first
/// byte; throws NetError on mid-buffer EOF or hard errors.
[[nodiscard]] bool read_full(int fd, std::uint8_t* data, std::size_t len);

/// Outcome of a non-blocking frame read attempt.
enum class TryRecv {
  Empty,  ///< no complete frame yet (nothing waiting, or a partial frame)
  Eof,    ///< peer closed cleanly at a frame boundary
  Got,    ///< one complete message decoded into *out
};

/// Buffered frame reader. Each recv pulls everything the kernel has, so a
/// burst of back-to-back frames from a batching peer costs one syscall
/// instead of two reads (header + payload) per frame. One reader per
/// descriptor -- bytes buffered here are invisible to recv_message.
class FrameReader {
 public:
  /// Blocking read of the next message. nullopt on clean EOF at a frame
  /// boundary; throws ProtocolError/NetError like recv_message.
  [[nodiscard]] std::optional<Message> next(int fd);

  /// Non-blocking read: decodes a buffered frame without touching the
  /// socket when one is complete, otherwise reads what the socket has
  /// with MSG_DONTWAIT. Returns Empty while no complete frame is in hand,
  /// including a partial one (the rest arrives on a later call), so it
  /// never blocks a non-blocking descriptor's owner.
  [[nodiscard]] TryRecv try_next(int fd, Message* out);

  /// Syscall-free drain: decodes the next frame only if it is already
  /// complete in the buffer. Under the one-outstanding-burst connection
  /// discipline this catches every frame of a burst that the last recv
  /// pulled in, without paying an EAGAIN probe for the burst's end.
  [[nodiscard]] bool buffered_next(Message* out);

 private:
  enum class Fill { Data, Empty, Eof };

  /// One recv into the tail of the buffer; Empty only when !block.
  Fill fill(int fd, bool block);
  /// Decodes one message if the buffer holds a complete frame.
  [[nodiscard]] std::optional<Message> take();
  [[nodiscard]] std::size_t have() const noexcept { return len_ - pos_; }

  std::vector<std::uint8_t> buf_;  ///< size() is the capacity in use
  std::size_t len_ = 0;  ///< filled prefix of buf_
  std::size_t pos_ = 0;  ///< consumed prefix of the filled bytes
};

/// Encodes and writes one frame. Returns false if the peer is gone.
[[nodiscard]] bool send_message(int fd, const Message& message);

/// Reads one frame. nullopt on clean EOF at a frame boundary; throws
/// ProtocolError on malformed frames and NetError on transport errors.
[[nodiscard]] std::optional<Message> recv_message(int fd);

}  // namespace fbc::service
