#include "cluster/router.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/stats.hpp"

namespace reads::cluster {

namespace {

/// Per-replica outstanding-job cap (kQueueFull shed beyond it).
constexpr std::size_t kMaxOutstandingPerReplica = 128;
/// Resharding hold bound per stream (kHeldTooLong shed beyond it).
constexpr std::size_t kMaxHeldPerStream = 256;
/// Graceful-shutdown drain bound.
constexpr double kDrainTimeoutMs = 5000.0;
constexpr std::size_t kRingVnodes = 64;
/// Slow-consumer defense: a peer whose outbound buffer exceeds this is
/// dropped.
constexpr std::size_t kMaxOutbufBytes = 8u << 20;
/// Connect budget for a new or journal-recovered replica.
constexpr double kConnectTimeoutMs = 2000.0;

double tp_ms(std::chrono::steady_clock::time_point t) noexcept {
  return std::chrono::duration<double, std::milli>(t.time_since_epoch())
      .count();
}

}  // namespace

double Router::now_ms() noexcept { return tp_ms(Clock::now()); }

Router::Router(RouterConfig cfg)
    : cfg_(std::move(cfg)),
      listener_(listen_on(cfg_.listen)),
      wake_(make_wake_pipe()),
      ring_(kRingVnodes),
      metrics_(0) {
  JournalState recovered;
  if (!cfg_.journal_path.empty()) {
    recovered = RouterJournal::replay(cfg_.journal_path);
    journal_ = RouterJournal(cfg_.journal_path);
  }
  if (!recovered.nodes.empty()) {
    // Recovery mode: the journaled membership IS the fleet — cfg_.replicas
    // described the cluster that first formed, the journal describes the
    // cluster as the previous incarnation last knew it. Forced node ids
    // keep every stream's ring placement exactly where it was.
    next_node_id_ = recovered.max_node_id + 1;
    for (const auto& n : recovered.nodes) {
      recover_replica(n.node, n.endpoint);
      ++counters_.journal_recovered_nodes;
    }
  } else {
    for (const auto& ep : cfg_.replicas) {
      if (do_add_replica(ep) == 0) {
        throw std::runtime_error("Router: cannot reach initial replica " + ep);
      }
    }
  }
  for (const auto& r : recovered.replies) {
    dedup_store(r.stream, r.req_id, r.reply, /*journal=*/false);
    ++counters_.journal_recovered_replies;
  }
}

Router::~Router() = default;

// ---- admin API (any thread) ---------------------------------------------

void Router::enqueue(Command cmd) {
  {
    std::lock_guard lock(command_mutex_);
    commands_.push_back(std::move(cmd));
  }
  wake_.wake();
}

std::uint64_t Router::add_replica(const std::string& endpoint) {
  Command cmd;
  cmd.kind = Command::Kind::kAdd;
  cmd.endpoint = endpoint;
  auto fut = cmd.add_result.get_future();
  enqueue(std::move(cmd));
  return fut.get();
}

bool Router::remove_replica(std::uint64_t node) {
  Command cmd;
  cmd.kind = Command::Kind::kRemove;
  cmd.node = node;
  auto fut = cmd.remove_result.get_future();
  enqueue(std::move(cmd));
  return fut.get();
}

std::string Router::stats_json() {
  Command cmd;
  cmd.kind = Command::Kind::kStats;
  auto fut = cmd.stats_result.get_future();
  enqueue(std::move(cmd));
  return fut.get();
}

void Router::process_commands() {
  std::vector<Command> batch;
  {
    std::lock_guard lock(command_mutex_);
    batch.swap(commands_);
  }
  for (auto& cmd : batch) {
    switch (cmd.kind) {
      case Command::Kind::kAdd:
        cmd.add_result.set_value(do_add_replica(cmd.endpoint));
        break;
      case Command::Kind::kRemove: {
        auto it = replicas_.find(cmd.node);
        if (it == replicas_.end()) {
          cmd.remove_result.set_value(false);
          break;
        }
        ReplicaConn& rc = *it->second;
        if (rc.state == NodeState::kReconnecting) {
          // Already off the ring and drained (the crash path redispatched
          // its jobs); removing it just cancels the reconnect campaign.
          cmd.remove_result.set_value(true);
          replicas_.erase(it);
          break;
        }
        rc.remove_promise.emplace(std::move(cmd.remove_result));
        do_remove_replica(rc);
        break;
      }
      case Command::Kind::kStats:
        cmd.stats_result.set_value(stats_json_now());
        break;
    }
  }
}

// ---- fleet membership ---------------------------------------------------

std::uint64_t Router::do_add_replica(const std::string& endpoint) {
  auto rc = std::make_unique<ReplicaConn>();
  try {
    rc->endpoint = Endpoint::parse(endpoint);
    connect_replica(*rc, kConnectTimeoutMs);
  } catch (const std::exception&) {
    return 0;
  }
  const std::uint64_t node = next_node_id_++;
  rc->node = node;
  const ReplicaConn& added = *rc;
  replicas_.emplace(node, std::move(rc));
  ring_.add(node);
  if (journal_.open()) {
    journal_.record_node(JournalNode{node, added.endpoint.str(), true});
  }
  for (auto& [id, st] : streams_) reevaluate_stream(id, st);
  return node;
}

void Router::connect_replica(ReplicaConn& rc, double timeout_ms) {
  rc.fd = connect_to(rc.endpoint, timeout_ms);
  rc.reader = MessageReader();
  rc.outbuf.clear();
  append_hello(rc.outbuf, Hello{Role::kAdmin, kProtocolVersion});
  rc.state = NodeState::kConnected;
  rc.last_progress_ms = now_ms();
}

void Router::recover_replica(std::uint64_t node, const std::string& endpoint) {
  auto rc = std::make_unique<ReplicaConn>();
  rc->node = node;
  try {
    rc->endpoint = Endpoint::parse(endpoint);
    connect_replica(*rc, kConnectTimeoutMs);
    replicas_.emplace(node, std::move(rc));
    ring_.add(node);
  } catch (const std::exception&) {
    // Journaled but unreachable right now. A fresh cluster that never
    // formed is a config error worth throwing for; a *restarting* router
    // refusing to come back up because one replica is still rebooting
    // would turn a partial outage into a total one — quarantine it and
    // let the backoff campaign decide.
    rc->state = NodeState::kReconnecting;
    rc->attempts = 0;
    rc->next_reconnect_ms = now_ms() + cfg_.reconnect_backoff_initial_ms;
    replicas_.emplace(node, std::move(rc));
  }
}

void Router::do_remove_replica(ReplicaConn& rc) {
  ring_.remove(rc.node);
  rc.state = NodeState::kRemoving;
  for (auto& [id, st] : streams_) reevaluate_stream(id, st);
  if (rc.outstanding.empty()) finished_removes_.push_back(rc.node);
}

void Router::finish_remove(std::uint64_t node, bool ok) {
  auto it = replicas_.find(node);
  if (it == replicas_.end()) return;
  ReplicaConn& rc = *it->second;
  if (rc.remove_promise) {
    rc.remove_promise->set_value(ok);
    rc.remove_promise.reset();
  }
  if (journal_.open()) {
    journal_.record_node(JournalNode{node, std::string(), false});
  }
  replicas_.erase(it);
}

void Router::replica_gone(std::uint64_t node) {
  auto it = replicas_.find(node);
  if (it == replicas_.end()) return;
  ReplicaConn& rc = *it->second;
  // Already quarantined: a second verdict in the same loop pass (stall kick
  // + read error, or an overflow during its own redispatch) is stale.
  if (rc.state == NodeState::kReconnecting) return;
  ++counters_.replica_crashes;
  rc.fd.reset();
  rc.reader = MessageReader();
  rc.outbuf.clear();
  const bool removing = rc.state == NodeState::kRemoving;
  ring_.remove(node);  // no-op when already off (remove-drain crash)
  redispatch_outstanding(rc);
  if (removing) {
    // The drain can't complete, but the node is gone and its jobs were
    // re-homed — from the admin's perspective that IS the handoff.
    finished_removes_.push_back(node);
    return;
  }
  rc.state = NodeState::kReconnecting;
  rc.attempts = 0;
  rc.next_reconnect_ms = now_ms() + cfg_.reconnect_backoff_initial_ms;
}

void Router::redispatch_outstanding(ReplicaConn& rc) {
  auto jobs = std::move(rc.outstanding);
  rc.outstanding.clear();
  for (auto& [gid, inf] : jobs) {
    auto sit = streams_.find(inf.job.stream);
    if (sit != streams_.end() && sit->second.inflight > 0) {
      --sit->second.inflight;
    }
  }
  for (auto& [id, st] : streams_) reevaluate_stream(id, st);
  for (auto& [gid, inf] : jobs) {
    ++counters_.redispatched_jobs;
    metrics_.record_redispatched();
    ShedReason reason = ShedReason::kNoReplica;
    const std::uint64_t stream = inf.job.stream;
    const std::uint64_t client = inf.client;
    const std::uint64_t req_id = inf.req_id;
    // Accepted jobs are never re-judged: route with admission bypassed.
    // The surviving replica re-executes bit-identically, so the client
    // still observes exactly one answer with exactly the same bits.
    if (route_job(std::move(inf), false, &reason) == RouteOutcome::kShed) {
      reply_shed(stream, client, req_id, reason);
    }
  }
}

void Router::try_reconnects() {
  const double now = now_ms();
  std::vector<std::uint64_t> give_up;
  for (auto& [node, rcp] : replicas_) {
    ReplicaConn& rc = *rcp;
    if (rc.state != NodeState::kReconnecting) continue;
    if (now < rc.next_reconnect_ms) continue;
    try {
      // Short budget: this blocks the loop, and a dead host answers with
      // ECONNREFUSED immediately anyway.
      connect_replica(rc, 200.0);
      ++counters_.reconnects;
      ring_.add(node);
      for (auto& [id, st] : streams_) reevaluate_stream(id, st);
    } catch (const std::exception&) {
      ++rc.attempts;
      if (rc.attempts >= cfg_.reconnect_attempts) {
        give_up.push_back(node);
        continue;
      }
      const double factor = static_cast<double>(
          1ull << std::min<std::size_t>(rc.attempts, 20));
      rc.next_reconnect_ms =
          now + std::min(cfg_.reconnect_backoff_max_ms,
                         cfg_.reconnect_backoff_initial_ms * factor);
    }
  }
  for (std::uint64_t node : give_up) finish_remove(node, false);
}

// ---- stream routing -----------------------------------------------------

void Router::send_job(ReplicaConn& rc, InFlight&& inf) {
  const double budget = inf.job.slo == 0 ? cfg_.hard_deadline_ms
                                         : cfg_.best_effort_deadline_ms;
  const double elapsed = now_ms() - tp_ms(inf.arrival);
  inf.job.deadline_ms = std::max(0.05, budget - elapsed);
  inf.send_ms = now_ms();
  append_job(rc.outbuf, inf.job);
  auto sit = streams_.find(inf.job.stream);
  if (sit != streams_.end()) ++sit->second.inflight;
  const std::uint64_t gid = inf.job.gid;
  rc.outstanding.emplace(gid, std::move(inf));
  rc.outbuf_high_water = std::max(rc.outbuf_high_water, rc.outbuf.size());
  if (rc.outbuf.size() > kMaxOutbufBytes) {
    // Slow-consumer defense: a replica that stopped draining its socket is
    // indistinguishable from a dead one. Kick it onto the crash path — the
    // job just queued (and everything else outstanding) redispatches.
    ++counters_.outbuf_overflows;
    gone_replicas_.push_back(rc.node);
  }
}

Router::RouteOutcome Router::route_job(InFlight&& inf, bool run_admission,
                                       ShedReason* shed_reason) {
  auto sit = streams_.find(inf.job.stream);
  StreamState& st = sit->second;
  if (st.draining) {
    if (st.held.size() >= kMaxHeldPerStream) {
      ++counters_.held_overflow;
      *shed_reason = ShedReason::kHeldTooLong;
      return RouteOutcome::kShed;
    }
    ++counters_.held_jobs;
    st.held.push_back(std::move(inf));
    return RouteOutcome::kHeld;
  }
  if (ring_.empty()) {
    ++counters_.no_replica;
    *shed_reason = ShedReason::kNoReplica;
    return RouteOutcome::kShed;
  }
  if (!st.pinned) {
    st.pin = ring_.owner(inf.job.stream);
    st.pinned = true;
  }
  ReplicaConn& rc = *replicas_.find(st.pin)->second;
  if (run_admission && rc.outstanding.size() >= kMaxOutstandingPerReplica) {
    *shed_reason = ShedReason::kQueueFull;
    return RouteOutcome::kShed;
  }
  send_job(rc, std::move(inf));
  return RouteOutcome::kSent;
}

void Router::on_job_settled(std::uint64_t stream_id) {
  auto sit = streams_.find(stream_id);
  if (sit == streams_.end()) return;
  StreamState& st = sit->second;
  if (st.inflight > 0) --st.inflight;
  if (st.draining && st.inflight == 0) reevaluate_stream(stream_id, st);
}

void Router::reevaluate_stream(std::uint64_t stream_id, StreamState& st) {
  if (!st.pinned) return;
  if (ring_.empty()) {
    st.pinned = false;
    st.draining = false;
    while (!st.held.empty()) {
      InFlight inf = std::move(st.held.front());
      st.held.pop_front();
      ++counters_.no_replica;
      reply_shed(inf.job.stream, inf.client, inf.req_id,
                 ShedReason::kNoReplica);
    }
    return;
  }
  const std::uint64_t owner = ring_.owner(stream_id);
  if (owner == st.pin) {
    st.draining = false;
    flush_held(stream_id, st);
    return;
  }
  if (st.inflight == 0) {
    // The drain point: nothing of this stream is in flight anywhere, so
    // the pin can move without ever having the stream on two replicas.
    st.pin = owner;
    st.draining = false;
    ++counters_.resharded_streams;
    flush_held(stream_id, st);
  } else {
    st.draining = true;
  }
}

void Router::flush_held(std::uint64_t stream_id, StreamState& st) {
  while (!st.held.empty() && !st.draining) {
    InFlight inf = std::move(st.held.front());
    st.held.pop_front();
    ShedReason reason = ShedReason::kNoReplica;
    const std::uint64_t client = inf.client;
    const std::uint64_t req_id = inf.req_id;
    if (route_job(std::move(inf), false, &reason) == RouteOutcome::kShed) {
      reply_shed(stream_id, client, req_id, reason);
    }
  }
}

// ---- client handling ----------------------------------------------------

void Router::reply_shed(std::uint64_t stream, std::uint64_t client_id,
                        std::uint64_t req_id, ShedReason reason) {
  std::vector<std::uint8_t> out;
  append_shed(out, Shed{req_id, reason});
  finish_reply(stream, req_id, client_id, std::move(out));
}

void Router::finish_reply(std::uint64_t stream, std::uint64_t req_id,
                          std::uint64_t client_id,
                          std::vector<std::uint8_t>&& bytes) {
  // Terminal means terminal: the (stream, req_id) key leaves the in-flight
  // table and enters the dedup window in the same step, so a resubmission
  // racing this reply finds exactly one of the two — never neither.
  inflight_keys_.erase({stream, req_id});
  dedup_store(stream, req_id, bytes, /*journal=*/true);
  send_to_client(client_id, bytes);
}

const std::vector<std::uint8_t>* Router::dedup_find(
    std::uint64_t stream, std::uint64_t req_id) const {
  const auto it = dedup_.find(stream);
  if (it == dedup_.end()) return nullptr;
  const auto rit = it->second.replies.find(req_id);
  return rit == it->second.replies.end() ? nullptr : &rit->second;
}

void Router::dedup_store(std::uint64_t stream, std::uint64_t req_id,
                         const std::vector<std::uint8_t>& bytes,
                         bool journal) {
  DedupWindow& w = dedup_[stream];
  const auto [it, inserted] = w.replies.emplace(req_id, bytes);
  if (inserted) {
    w.order.push_back(req_id);
    ++dedup_entries_;
    while (w.order.size() > kDedupWindow) {
      w.replies.erase(w.order.front());
      w.order.pop_front();
      --dedup_entries_;
    }
  }
  if (journal && journal_.open()) journal_.record_reply(stream, req_id, bytes);
}

void Router::rebind_inflight(std::uint64_t stream, std::uint64_t gid,
                             std::uint64_t client_id) {
  for (auto& [node, rcp] : replicas_) {
    const auto it = rcp->outstanding.find(gid);
    if (it != rcp->outstanding.end()) {
      it->second.client = client_id;
      return;
    }
  }
  auto sit = streams_.find(stream);
  if (sit == streams_.end()) return;
  for (InFlight& inf : sit->second.held) {
    if (inf.job.gid == gid) {
      inf.client = client_id;
      return;
    }
  }
}

void Router::send_to_client(std::uint64_t client_id,
                            const std::vector<std::uint8_t>& bytes) {
  auto it = clients_.find(client_id);
  if (it == clients_.end() || !it->second.alive) {
    ++counters_.undeliverable_results;
    return;
  }
  ClientConn& c = it->second;
  c.outbuf.insert(c.outbuf.end(), bytes.begin(), bytes.end());
  c.outbuf_high_water = std::max(c.outbuf_high_water, c.outbuf.size());
  client_outbuf_high_water_ =
      std::max(client_outbuf_high_water_, c.outbuf.size());
  if (c.outbuf.size() > kMaxOutbufBytes) {
    // Slow-consumer defense: drop the connection rather than buffer without
    // bound. Nothing is lost — every reply just queued is in the dedup
    // window, and a resilient client resubmits what it never saw.
    ++counters_.outbuf_overflows;
    c.alive = false;
    c.outbuf.clear();
    return;
  }
  flush_outbuf(c.fd.get(), c.outbuf, c.alive, &c.last_progress_ms);
}

void Router::flush_outbuf(int fd, std::vector<std::uint8_t>& outbuf,
                          bool& alive, double* last_progress_ms) {
  if (!alive || outbuf.empty()) return;
  const std::ptrdiff_t n = write_some(fd, outbuf.data(), outbuf.size());
  if (n < 0) {
    alive = false;
    outbuf.clear();
    return;
  }
  if (n > 0) {
    outbuf.erase(outbuf.begin(), outbuf.begin() + n);
    if (last_progress_ms != nullptr) *last_progress_ms = now_ms();
  }
}

void Router::handle_submit(ClientConn& c, Submit&& submit) {
  // Idempotent resubmission, checked before anything else touches state.
  // Ordering is load-bearing: the assembler keeps per-stream sequence and
  // duplicate history, so letting a resubmitted tick reach the gauntlet
  // would shed it kBadFrame instead of answering it.
  if (const std::vector<std::uint8_t>* stored =
          dedup_find(submit.stream, submit.req_id)) {
    ++counters_.dedup_hits;
    send_to_client(c.id, *stored);
    return;
  }
  if (const auto kit = inflight_keys_.find({submit.stream, submit.req_id});
      kit != inflight_keys_.end()) {
    // Still being answered: re-aim the eventual reply at this connection
    // (the original one is usually the torn socket the client gave up on).
    ++counters_.inflight_rebinds;
    rebind_inflight(submit.stream, kit->second, c.id);
    return;
  }

  metrics_.record_arrival();
  if (shutting_down_) {
    metrics_.record_shed_shutdown();
    reply_shed(submit.stream, c.id, submit.req_id, ShedReason::kShutdown);
    return;
  }
  StreamState& st =
      streams_.try_emplace(submit.stream, cfg_.assembler).first->second;
  if (submit.packets.empty()) {
    ++counters_.bad_frames;
    reply_shed(submit.stream, c.id, submit.req_id, ShedReason::kBadFrame);
    return;
  }
  const std::uint32_t seq = submit.packets.front().sequence;
  deliveries_.clear();
  for (auto& p : submit.packets) {
    deliveries_.push_back(net::Delivery{std::move(p), 0.0, false});
  }
  const auto frame = st.assembler.assemble(seq, deliveries_);
  if (!frame.complete()) {
    // Some hub packet failed the gauntlet (CRC, layout, sequence,
    // duplicate). The frame the assembler substituted is last-known data —
    // fine for a resilient control loop, but a cluster client asked us to
    // serve *this* tick, so the honest terminal answer is a shed.
    ++counters_.bad_frames;
    reply_shed(submit.stream, c.id, submit.req_id, ShedReason::kBadFrame);
    return;
  }

  // Re-seal the whole assembled ring as one jumbo packet. encode/decode is
  // lossless at digitizer magnitudes, so the replica reconstructs the
  // assembler's output bit-for-bit.
  net::BlmPacket jumbo;
  jumbo.hub_id = 0;
  jumbo.sequence = seq;
  jumbo.first_monitor = 0;
  const auto raw = frame.raw.flat();
  jumbo.readings.reserve(raw.size());
  for (float v : raw) {
    jumbo.readings.push_back(net::encode_reading(static_cast<double>(v)));
  }
  net::seal_packet(jumbo);

  InFlight inf;
  inf.job.gid = next_gid_++;
  inf.job.stream = submit.stream;
  inf.job.slo = submit.slo;
  inf.job.packet = std::move(jumbo);
  inf.client = c.id;
  inf.req_id = submit.req_id;
  inf.arrival = Clock::now();
  const std::uint64_t gid = inf.job.gid;

  ShedReason reason = ShedReason::kNoReplica;
  const auto outcome = route_job(std::move(inf), true, &reason);
  if (outcome == RouteOutcome::kShed) {
    switch (reason) {
      case ShedReason::kQueueFull:
        metrics_.record_shed_queue_full();
        break;
      case ShedReason::kShutdown:
        metrics_.record_shed_shutdown();
        break;
      default:
        // Cluster-only outcomes (kNoReplica/kHeldTooLong) live in
        // counters_, already incremented at the routing decision.
        break;
    }
    reply_shed(submit.stream, c.id, submit.req_id, reason);
    return;
  }
  // Accepted (sent or held): register the idempotency key so a duplicate
  // rebinds to this job instead of re-executing it.
  inflight_keys_[{submit.stream, submit.req_id}] = gid;
  metrics_.record_admitted();
}

void Router::handle_client_message(ClientConn& c, const Message& msg) {
  switch (msg.type) {
    case MsgType::kHello:
      (void)decode_hello(msg.payload);
      break;
    case MsgType::kSubmit:
      handle_submit(c, decode_submit(msg.payload));
      break;
    case MsgType::kStatsRequest: {
      std::vector<std::uint8_t> out;
      append_stats_reply(out, StatsReply{stats_json_now()});
      send_to_client(c.id, out);
      break;
    }
    case MsgType::kShutdown:
      begin_shutdown();
      break;
    default:
      break;
  }
}

void Router::handle_replica_message(ReplicaConn& rc, const Message& msg) {
  if (msg.type == MsgType::kResult) {
    Result r = decode_result(msg.payload);
    auto it = rc.outstanding.find(r.id);
    if (it == rc.outstanding.end()) {
      // Exactly-once dedup: a ghost of a crash-redispatch (both the dying
      // and the surviving replica executed the job) or a stale answer.
      ++counters_.duplicate_results;
      return;
    }
    InFlight inf = std::move(it->second);
    rc.outstanding.erase(it);

    const double budget = inf.job.slo == 0 ? cfg_.hard_deadline_ms
                                           : cfg_.best_effort_deadline_ms;
    const double e2e = now_ms() - tp_ms(inf.arrival);
    const double queue = std::max(0.0, inf.send_ms - tp_ms(inf.arrival));
    const bool miss = e2e > budget;
    metrics_.record_completions(std::span<const double>(&queue, 1),
                                std::span<const double>(&e2e, 1),
                                miss ? 1 : 0);

    r.id = inf.req_id;
    r.deadline_met = miss ? 0 : 1;
    std::vector<std::uint8_t> out;
    append_result(out, r);
    finish_reply(inf.job.stream, inf.req_id, inf.client, std::move(out));
    on_job_settled(inf.job.stream);
  } else if (msg.type == MsgType::kShed) {
    const Shed s = decode_shed(msg.payload);
    auto it = rc.outstanding.find(s.id);
    if (it == rc.outstanding.end()) {
      ++counters_.duplicate_results;
      return;
    }
    InFlight inf = std::move(it->second);
    rc.outstanding.erase(it);
    ++counters_.replica_sheds;
    reply_shed(inf.job.stream, inf.client, inf.req_id, s.reason);
    on_job_settled(inf.job.stream);
  }
  if (rc.state == NodeState::kRemoving && rc.outstanding.empty()) {
    finished_removes_.push_back(rc.node);
  }
}

// ---- event loop ---------------------------------------------------------

void Router::accept_clients() {
  for (;;) {
    Fd fd = accept_conn(listener_.fd.get());
    if (!fd.valid()) break;
    ClientConn c;
    c.id = next_client_id_++;
    c.fd = std::move(fd);
    clients_.emplace(c.id, std::move(c));
  }
}

void Router::read_client(ClientConn& c) {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const std::ptrdiff_t n = read_some(c.fd.get(), buf, sizeof(buf));
    if (n == 0) break;
    if (n < 0) {
      c.alive = false;
      return;
    }
    c.last_progress_ms = now_ms();
    c.reader.feed(buf, static_cast<std::size_t>(n));
  }
  if (c.reader.broken()) {
    // The envelope CRC latched: everything past the damage is noise, and
    // already-verified messages were drained on earlier passes. Cut the
    // connection — a resilient client reconnects and resubmits.
    ++counters_.malformed_disconnects;
    c.alive = false;
    return;
  }
  while (auto msg = c.reader.next()) {
    try {
      handle_client_message(c, *msg);
    } catch (const std::exception&) {
      ++counters_.malformed_disconnects;
      c.alive = false;
      return;
    }
  }
}

void Router::read_replica(ReplicaConn& rc) {
  std::uint8_t buf[64 * 1024];
  bool gone = false;
  for (;;) {
    const std::ptrdiff_t n = read_some(rc.fd.get(), buf, sizeof(buf));
    if (n == 0) break;
    if (n < 0) {
      gone = true;
      break;
    }
    rc.last_progress_ms = now_ms();
    rc.reader.feed(buf, static_cast<std::size_t>(n));
  }
  if (rc.reader.broken()) {
    ++counters_.malformed_disconnects;
    gone = true;
  }
  while (auto msg = rc.reader.next()) {
    try {
      handle_replica_message(rc, *msg);
    } catch (const std::exception&) {
      gone = true;
      break;
    }
  }
  if (gone) gone_replicas_.push_back(rc.node);
}

void Router::check_stalls() {
  const double now = now_ms();
  for (auto& [node, rcp] : replicas_) {
    ReplicaConn& rc = *rcp;
    if (rc.state == NodeState::kReconnecting) continue;
    const bool pending = !rc.outstanding.empty() || !rc.outbuf.empty();
    if (!pending) {
      // An idle connection owes us nothing; the stall clock only runs
      // while bytes are due.
      rc.last_progress_ms = now;
      continue;
    }
    if (now - rc.last_progress_ms > cfg_.stall_timeout_ms) {
      ++counters_.stalled_peers;
      rc.last_progress_ms = now;
      gone_replicas_.push_back(node);  // quarantine path, jobs redispatch
    }
  }
  for (auto& [id, c] : clients_) {
    if (!c.alive || c.outbuf.empty()) {
      c.last_progress_ms = now;
      continue;
    }
    if (now - c.last_progress_ms > cfg_.stall_timeout_ms) {
      ++counters_.stalled_peers;
      c.alive = false;
      c.outbuf.clear();
    }
  }
}

void Router::begin_shutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  shutdown_start_ms_ = now_ms();
  listener_.fd.reset();
  // Close-then-drain: everything already accepted is flushed to the fleet
  // (admission bypassed — acceptance is a promise), then the loop stays up
  // until every outstanding job has answered.
  for (auto& [id, st] : streams_) {
    st.draining = false;
    flush_held(id, st);
  }
}

bool Router::shutdown_drained() const {
  for (const auto& [node, rc] : replicas_) {
    if (!rc->outstanding.empty()) return false;
    if (!rc->outbuf.empty() && rc->state != NodeState::kReconnecting) {
      return false;
    }
  }
  for (const auto& [id, st] : streams_) {
    if (!st.held.empty()) return false;
  }
  for (const auto& [id, c] : clients_) {
    if (c.alive && !c.outbuf.empty()) return false;
  }
  return true;
}

void Router::run() {
  started_ = Clock::now();
  Poller poller;
  std::vector<std::uint64_t> dead_clients;
  for (;;) {
    poller.clear();
    if (listener_.fd.valid()) poller.want(listener_.fd.get(), true, false);
    poller.want(wake_.r.get(), true, false);
    for (auto& [id, c] : clients_) {
      poller.want(c.fd.get(), true, !c.outbuf.empty());
    }
    for (auto& [node, rc] : replicas_) {
      if (rc->state == NodeState::kReconnecting) continue;
      poller.want(rc->fd.get(), true, !rc->outbuf.empty());
    }
    poller.wait(20);
    wake_.drain();

    process_commands();
    if (stop_.load(std::memory_order_relaxed) != 0) begin_shutdown();

    if (listener_.fd.valid() && poller.readable(listener_.fd.get())) {
      accept_clients();
    }

    for (auto& [id, c] : clients_) {
      if (c.alive && poller.readable(c.fd.get())) read_client(c);
      if (c.alive && poller.writable(c.fd.get())) {
        flush_outbuf(c.fd.get(), c.outbuf, c.alive, &c.last_progress_ms);
      }
    }
    dead_clients.clear();
    for (auto& [id, c] : clients_) {
      if (!c.alive) dead_clients.push_back(id);
    }
    for (std::uint64_t id : dead_clients) clients_.erase(id);

    for (auto& [node, rc] : replicas_) {
      if (rc->state == NodeState::kReconnecting) continue;
      if (poller.readable(rc->fd.get())) read_replica(*rc);
      if (rc->fd.valid() && poller.writable(rc->fd.get())) {
        bool alive = true;
        flush_outbuf(rc->fd.get(), rc->outbuf, alive,
                     &rc->last_progress_ms);
        if (!alive) gone_replicas_.push_back(node);
      }
    }
    check_stalls();
    // Index loop on purpose: replica_gone redispatches, and a redispatch
    // that overflows the new owner's outbuf appends to gone_replicas_
    // mid-walk (a range-for iterator would be invalidated).
    for (std::size_t i = 0; i < gone_replicas_.size(); ++i) {
      replica_gone(gone_replicas_[i]);
    }
    gone_replicas_.clear();

    for (std::uint64_t node : finished_removes_) finish_remove(node, true);
    finished_removes_.clear();

    try_reconnects();

    if (shutting_down_) {
      const bool timed_out =
          now_ms() - shutdown_start_ms_ > kDrainTimeoutMs;
      if (shutdown_drained() || timed_out) break;
    }
  }

  // Last-gasp delivery: push any remaining buffered replies synchronously
  // so a drained shutdown really leaves no accepted frame unanswered.
  for (auto& [id, c] : clients_) {
    if (c.alive && !c.outbuf.empty()) {
      write_all(c.fd.get(), c.outbuf.data(), c.outbuf.size(), 500.0);
    }
  }
  for (auto& [node, rc] : replicas_) {
    if (rc->remove_promise) rc->remove_promise->set_value(false);
  }
  process_commands();  // answer any admin stragglers instead of hanging them
  clients_.clear();
  replicas_.clear();
}

// ---- stats --------------------------------------------------------------

std::string Router::stats_json_now() {
  const auto snap = metrics_.snapshot();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - started_).count();
  std::ostringstream out;
  out << "{\"router\": " << snap.to_json(wall_s)
      << ", \"cluster_counters\": {"
      << "\"bad_frames\": " << counters_.bad_frames
      << ", \"no_replica\": " << counters_.no_replica
      << ", \"held_overflow\": " << counters_.held_overflow
      << ", \"held_jobs\": " << counters_.held_jobs
      << ", \"resharded_streams\": " << counters_.resharded_streams
      << ", \"replica_crashes\": " << counters_.replica_crashes
      << ", \"reconnects\": " << counters_.reconnects
      << ", \"redispatched_jobs\": " << counters_.redispatched_jobs
      << ", \"duplicate_results\": " << counters_.duplicate_results
      << ", \"undeliverable_results\": " << counters_.undeliverable_results
      << ", \"replica_sheds\": " << counters_.replica_sheds
      << ", \"dedup_hits\": " << counters_.dedup_hits
      << ", \"inflight_rebinds\": " << counters_.inflight_rebinds
      << ", \"malformed_disconnects\": " << counters_.malformed_disconnects
      << ", \"stalled_peers\": " << counters_.stalled_peers
      << ", \"outbuf_overflows\": " << counters_.outbuf_overflows
      << ", \"journal_recovered_nodes\": "
      << counters_.journal_recovered_nodes
      << ", \"journal_recovered_replies\": "
      << counters_.journal_recovered_replies << "}"
      << ", \"dedup_entries\": " << dedup_entries_
      << ", \"client_outbuf_high_water\": " << client_outbuf_high_water_
      << ", \"nodes\": [";
  const double now = now_ms();
  bool first = true;
  for (const auto& [node, rc] : replicas_) {
    if (!first) out << ", ";
    first = false;
    const char* state = rc->state == NodeState::kConnected ? "connected"
                        : rc->state == NodeState::kRemoving ? "removing"
                                                             : "reconnecting";
    const double next_in =
        rc->state == NodeState::kReconnecting
            ? std::max(0.0, rc->next_reconnect_ms - now)
            : 0.0;
    out << "{\"node\": " << node
        << ", \"endpoint\": " << util::json_quote(rc->endpoint.str())
        << ", \"outstanding\": " << rc->outstanding.size()
        << ", \"state\": \"" << state
        << "\", \"attempts\": " << rc->attempts
        << ", \"next_reconnect_in_ms\": " << util::json_double(next_in)
        << ", \"outbuf_high_water\": " << rc->outbuf_high_water << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace reads::cluster
