#include "cluster/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <span>
#include <system_error>

#include "cluster/protocol.hpp"
#include "net/wire.hpp"

namespace reads::cluster {

namespace {

constexpr std::uint8_t kNode = 1;
// Type 2 is taken: older journals hold SLO records there, which replay
// skips like any unknown type (budgets come from RouterConfig alone).
constexpr std::uint8_t kReply = 3;

}  // namespace

RouterJournal::RouterJournal(const std::string& path) : path_(path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    throw std::system_error(errno, std::generic_category(),
                            "RouterJournal: open " + path);
  }
  fd_ = Fd(fd);
}

void RouterJournal::append(std::uint8_t type,
                           const std::vector<std::uint8_t>& payload) {
  if (!fd_.valid()) return;
  std::vector<std::uint8_t> rec;
  rec.reserve(payload.size() + 9);
  net::put_u8(rec, type);
  net::put_u32(rec, static_cast<std::uint32_t>(payload.size()));
  rec.insert(rec.end(), payload.begin(), payload.end());
  net::put_u32(rec, seal_crc(type, payload.data(), payload.size()));
  // One write(2) per record: O_APPEND makes the append atomic enough for a
  // single-writer journal, and a record torn by a mid-write kill fails its
  // CRC on replay.
  std::size_t off = 0;
  while (off < rec.size()) {
    const ssize_t n = ::write(fd_.get(), rec.data() + off, rec.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // journal degraded (disk full?): serving must not stop
    }
    off += static_cast<std::size_t>(n);
  }
}

void RouterJournal::record_node(const JournalNode& n) {
  std::vector<std::uint8_t> p;
  net::put_u64(p, n.node);
  net::put_u8(p, n.alive ? 1 : 0);
  put_string(p, n.endpoint);
  append(kNode, p);
}

void RouterJournal::record_reply(std::uint64_t stream, std::uint64_t req_id,
                                 const std::vector<std::uint8_t>& reply) {
  std::vector<std::uint8_t> p;
  net::put_u64(p, stream);
  net::put_u64(p, req_id);
  net::put_u32(p, static_cast<std::uint32_t>(reply.size()));
  p.insert(p.end(), reply.begin(), reply.end());
  append(kReply, p);
}

JournalState RouterJournal::replay(const std::string& path) {
  JournalState state;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return state;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);

  // Membership is last-writer-wins per node; dead nodes drop out.
  std::vector<JournalNode> nodes;
  std::size_t off = 0;
  // Every length is widened to size_t before it is added to: a u32 length
  // near 2^32 must not wrap past the bounds check.
  while (bytes.size() - off >= 9) {
    const std::uint8_t type = bytes[off];
    const std::size_t len = net::get_u32(bytes.data() + off + 1);
    if (bytes.size() - off < 9 + len) break;  // torn tail record
    const std::uint8_t* payload = bytes.data() + off + 5;
    const std::uint32_t crc = net::get_u32(payload + len);
    if (crc != seal_crc(type, payload, len)) break;
    off += 9 + len;

    const std::span<const std::uint8_t> p(payload, len);
    if (type == kNode && len >= 13) {
      JournalNode n;
      n.node = net::get_u64(p.data());
      n.alive = p[8] != 0;
      const std::size_t slen = net::get_u32(p.data() + 9);
      if (13 + slen > len) break;
      n.endpoint.assign(reinterpret_cast<const char*>(p.data() + 13), slen);
      state.max_node_id = std::max(state.max_node_id, n.node);
      bool found = false;
      for (auto& existing : nodes) {
        if (existing.node == n.node) {
          existing = n;
          found = true;
          break;
        }
      }
      if (!found) nodes.push_back(std::move(n));
    } else if (type == kReply && len >= 20) {
      JournalReply r;
      r.stream = net::get_u64(p.data());
      r.req_id = net::get_u64(p.data() + 8);
      const std::size_t rlen = net::get_u32(p.data() + 16);
      if (20 + rlen > len) break;
      r.reply.assign(p.data() + 20, p.data() + 20 + rlen);
      state.replies.push_back(std::move(r));
    }
    // Unknown record types are skipped (CRC already vouched for framing):
    // a newer router's journal must not brick an older one.
  }
  for (auto& n : nodes) {
    if (n.alive) state.nodes.push_back(std::move(n));
  }
  return state;
}

}  // namespace reads::cluster
