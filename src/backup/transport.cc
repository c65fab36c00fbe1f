#include "backup/transport.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace shredder::backup {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

LinkStats per_chunk_link_price(const LinkCostModel& costs, std::uint64_t chunks,
                               std::uint64_t unique_bytes,
                               std::size_t image_id_bytes) {
  LinkStats st;
  st.messages = chunks + 1;
  st.chunks = chunks;
  st.payload_bytes = unique_bytes;
  st.wire_bytes = st.messages * costs.msg_header_bytes + image_id_bytes +
                  chunks * sizeof(dedup::ChunkDigest) + unique_bytes;
  st.virtual_seconds = static_cast<double>(st.messages) * costs.msg_s +
                       static_cast<double>(st.wire_bytes) / costs.bw;
  return st;
}

Transport::Transport(BackupAgent& agent, TransportConfig config,
                     RepairSource repair)
    : agent_(agent),
      cfg_(std::move(config)),
      repair_(std::move(repair)),
      rng_(cfg_.faults.seed) {
  if (cfg_.window_frames == 0 || cfg_.recv_frames == 0 ||
      cfg_.reorder_slots == 0 || cfg_.max_frame_bytes == 0 ||
      cfg_.repair_batch == 0 || cfg_.repair_window == 0) {
    throw std::invalid_argument("Transport: zero-sized window/buffer");
  }
  peer_window_ = cfg_.recv_frames;
  if (cfg_.tracer != nullptr) {
    track_tx_ = "transport/" + cfg_.trace_label + "/tx";
    track_rx_ = "transport/" + cfg_.trace_label + "/rx";
    track_agent_ = "agent/" + cfg_.trace_label;
    track_stall_ = "transport/" + cfg_.trace_label + "/stall";
  }
}

// --- sender API ----------------------------------------------------------

void Transport::begin_image(const std::string& image_id) {
  Frame f;
  f.kind = Frame::Kind::kBegin;
  f.image_id = image_id;
  f.content_bytes = image_id.size();
  enqueue(std::move(f));
  image_chunks_.try_emplace(image_id, 0);
  pump(cfg_.window_frames);
}

void Transport::send_batch(const std::string& image_id,
                           const BackupAgent::ExtentBatch& batch) {
  image_chunks_[image_id] += batch.digests.size();
  // Segment at chunk boundaries so no data frame carries more than
  // max_frame_bytes of content. Per chunk: one digest record, possibly a new
  // extent record, and (for unique chunks) one size record plus the payload.
  BackupAgent::ExtentBatch part;
  std::size_t content = 0;
  std::size_t next_size = 0;   // index into batch.payload_sizes
  std::size_t payload_off = 0;
  auto seal = [&] {
    if (part.digests.empty()) return;
    Frame f;
    f.image_id = image_id;
    f.content_bytes = content;
    f.batch = std::move(part);
    enqueue(std::move(f));
    part = {};
    content = 0;
  };
  for (const auto& e : batch.extents) {
    for (std::uint32_t k = 0; k < e.count; ++k) {
      std::size_t sz = 0;
      std::size_t delta = sizeof(dedup::ChunkDigest);
      if (e.unique) {
        sz = batch.payload_sizes[next_size];
        delta += sizeof(std::uint32_t) + sz;
      }
      const bool open_run =
          !part.extents.empty() && part.extents.back().unique == e.unique;
      if (!open_run) delta += cfg_.link.extent_record_bytes;
      if (content > 0 && content + delta > cfg_.max_frame_bytes) {
        seal();
        delta = sizeof(dedup::ChunkDigest) + cfg_.link.extent_record_bytes +
                (e.unique ? sizeof(std::uint32_t) + sz : 0);
      }
      const auto idx = static_cast<std::uint32_t>(part.digests.size());
      part.digests.push_back(batch.digests[e.first + k]);
      if (part.extents.empty() || part.extents.back().unique != e.unique) {
        part.extents.push_back({idx, 1, e.unique});
      } else {
        ++part.extents.back().count;
      }
      if (e.unique) {
        part.payload_sizes.push_back(static_cast<std::uint32_t>(sz));
        part.payload.insert(part.payload.end(),
                            batch.payload.begin() + payload_off,
                            batch.payload.begin() + payload_off + sz);
        payload_off += sz;
        ++next_size;
      }
      content += delta;
    }
  }
  seal();
  pump(cfg_.window_frames);
}

void Transport::send_batch(const std::string& image_id,
                           BackupAgent::ExtentBatch&& batch) {
  if (batch.digests.empty()) return;
  // Closed-form content size; batch.extents may be slightly less coalesced
  // than what the segmenting path would rebuild, so this is conservative —
  // a batch judged too big here just takes the copying path.
  const std::size_t content =
      batch.digests.size() * sizeof(dedup::ChunkDigest) +
      batch.extents.size() * cfg_.link.extent_record_bytes +
      batch.payload_sizes.size() * sizeof(std::uint32_t) +
      batch.payload.size();
  if (content > cfg_.max_frame_bytes) {
    send_batch(image_id, batch);  // segmenting copy path
    return;
  }
  image_chunks_[image_id] += batch.digests.size();
  Frame f;
  f.image_id = image_id;
  f.content_bytes = content;
  f.batch = std::move(batch);
  enqueue(std::move(f));
  pump(cfg_.window_frames);
}

void Transport::end_image(const std::string& image_id) {
  Frame f;
  f.kind = Frame::Kind::kEnd;
  f.image_id = image_id;
  f.expected_chunks = image_chunks_[image_id];
  f.content_bytes = image_id.size() + sizeof(std::uint64_t);
  enqueue(std::move(f));
  pump(cfg_.window_frames);
}

void Transport::flush() {
  pump(0);
  stats_.virtual_seconds = now_;
  stats_.goodput_bps =
      now_ > 0 ? static_cast<double>(stats_.link.payload_bytes) * 8.0 / now_
               : 0.0;
  const double retx_share =
      static_cast<double>(stats_.retransmits) /
      static_cast<double>(std::max<std::uint64_t>(1, stats_.frames_sent));
  const double stall_share =
      now_ > 0 ? stats_.window_stall_seconds / now_ : 0.0;
  stats_.degraded = retx_share >= cfg_.degraded_retransmit_rate ||
                    stall_share >= cfg_.degraded_stall_fraction;
}

// --- sender internals ----------------------------------------------------

void Transport::enqueue(Frame frame) {
  frame.seq = next_seq_++;
  backlog_.push_back(std::make_shared<const Frame>(std::move(frame)));
}

bool Transport::can_send() const {
  return !backlog_.empty() && unacked_.size() < cfg_.window_frames &&
         unacked_.size() < peer_window_;
}

void Transport::transmit_next() {
  FramePtr frame = backlog_.front();
  backlog_.pop_front();
  Outstanding out;
  out.frame = frame;
  out.rto = cfg_.rto_s;
  const double finish = [&] {
    // Charge the logical link once per original frame, per-message handling plus framed bytes over bw. The
    // retransmit path never touches these counters.
    const std::size_t wire = cfg_.link.msg_header_bytes + frame->content_bytes;
    ++stats_.link.messages;
    stats_.link.wire_bytes += wire;
    stats_.link.virtual_seconds +=
        cfg_.link.msg_s + static_cast<double>(wire) / cfg_.link.bw;
    if (frame->kind == Frame::Kind::kData) {
      stats_.link.extents += frame->batch.extents.size();
      stats_.link.chunks += frame->batch.digests.size();
      stats_.link.payload_bytes += frame->batch.payload.size();
    }
    ++stats_.frames_sent;
    const char* what = frame->kind == Frame::Kind::kBegin  ? "begin"
                       : frame->kind == Frame::Kind::kEnd  ? "end"
                                                           : "data";
    return wire_send(0, frame->content_bytes, what, [frame](double t) {
      Event ev;
      ev.t = t;
      ev.kind = Event::Kind::kFrameArrive;
      ev.frame = frame;
      return ev;
    });
  }();
  out.expires = finish + out.rto;
  unacked_.emplace(frame->seq, std::move(out));
}

void Transport::retransmit_frame(Outstanding& out) {
  ++out.retx;
  // Payload exhaustion: ship the metadata alone and let the repair protocol
  // recover the bytes — only when a repair source exists to serve them.
  if (repair_ && out.frame->kind == Frame::Kind::kData &&
      !out.frame->stripped && !out.frame->batch.payload.empty() &&
      out.retx > cfg_.max_payload_retx) {
    Frame stripped = *out.frame;
    stripped.stripped = true;
    stripped.batch.payload.clear();
    stripped.content_bytes -= out.frame->batch.payload.size();
    out.frame = std::make_shared<const Frame>(std::move(stripped));
    ++stats_.payloads_stripped;
  }
  ++stats_.retransmits;
  stats_.retransmit_wire_bytes +=
      cfg_.link.msg_header_bytes + out.frame->content_bytes;
  ++stats_.frames_sent;
  const FramePtr frame = out.frame;
  const double finish =
      wire_send(0, frame->content_bytes,
                frame->stripped ? "retx_stripped" : "retx", [frame](double t) {
        Event ev;
        ev.t = t;
        ev.kind = Event::Kind::kFrameArrive;
        ev.frame = frame;
        return ev;
      });
  out.rto = std::min(out.rto * cfg_.rto_backoff, cfg_.rto_max_s);
  out.expires = finish + out.rto;
}

void Transport::handle_ack(const Ack& ack) {
  while (!unacked_.empty() && unacked_.begin()->first < ack.cum) {
    unacked_.erase(unacked_.begin());
  }
  for (const std::uint64_t seq : ack.sacks) {
    const auto it = unacked_.find(seq);
    if (it != unacked_.end()) it->second.sacked = true;
  }
  if (ack.cum > max_cum_seen_) {
    max_cum_seen_ = ack.cum;
    peer_window_ = ack.window;
    dup_acks_ = 0;
  } else if (ack.cum == max_cum_seen_) {
    // Same cumulative point again: a window update (apply finished) and/or a
    // duplicate ack hinting at a gap the receiver is parked on. Only acks
    // that carry selective blocks are gap evidence — a pure window update
    // repeats the cumulative seq with nothing parked, and counting it would
    // fire spurious fast retransmits on every slow-apply reopen.
    peer_window_ = ack.window;
    if (ack.sacks.empty()) dup_acks_ = 0;
    if (!ack.sacks.empty() && !unacked_.empty() && ++dup_acks_ >= 3) {
      dup_acks_ = 0;
      for (auto& [seq, out] : unacked_) {
        if (!out.sacked) {
          if (!out.fast_done) {
            out.fast_done = true;
            ++stats_.fast_retransmits;
            retransmit_frame(out);
          }
          break;
        }
      }
    }
  }
  if (peer_window_ > 0) probing_ = false;
}

void Transport::fire_probe() {
  ++stats_.probes;
  ++stats_.frames_sent;
  Frame probe;
  probe.kind = Frame::Kind::kProbe;
  auto frame = std::make_shared<const Frame>(std::move(probe));
  wire_send(0, 0, "probe", [frame](double t) {
    Event ev;
    ev.t = t;
    ev.kind = Event::Kind::kFrameArrive;
    ev.frame = frame;
    return ev;
  });
  probe_rto_ = std::min(probe_rto_ * cfg_.rto_backoff, cfg_.rto_max_s);
  probe_deadline_ = now_ + probe_rto_;
}

void Transport::serve_repair(const std::vector<dedup::ChunkDigest>& digests) {
  // Pack repaired payloads into frames of at most max_frame_bytes content:
  // per chunk a digest record, a size record, and the bytes.
  std::vector<std::pair<dedup::ChunkDigest, ByteVec>> out;
  std::size_t content = 0;
  auto ship = [&] {
    if (out.empty()) return;
    ++stats_.repair_frames;
    ++stats_.frames_sent;
    auto repairs = std::make_shared<
        std::vector<std::pair<dedup::ChunkDigest, ByteVec>>>(std::move(out));
    wire_send(0, content, "repair_data", [repairs](double t) {
      Event ev;
      ev.t = t;
      ev.kind = Event::Kind::kRepairDataArrive;
      ev.repairs = *repairs;
      return ev;
    });
    out.clear();
    content = 0;
  };
  for (const auto& digest : digests) {
    auto payload = repair_(digest);
    if (!payload.has_value()) {
      throw std::logic_error(
          "Transport: repair requested for a digest the server cannot serve");
    }
    const std::size_t delta = sizeof(dedup::ChunkDigest) +
                              sizeof(std::uint32_t) + payload->size();
    if (content > 0 && content + delta > cfg_.max_frame_bytes) ship();
    stats_.repair_payload_bytes += payload->size();
    content += delta;
    out.emplace_back(digest, std::move(*payload));
  }
  ship();
}

// --- receiver (agent) side -----------------------------------------------

std::size_t Transport::advertised_window() const {
  const std::size_t used = parked_.size() + apply_outstanding_;
  return used >= cfg_.recv_frames ? 0 : cfg_.recv_frames - used;
}

void Transport::on_frame(const FramePtr& frame) {
  if (frame->kind == Frame::Kind::kProbe) {
    send_ack();  // a probe just elicits a fresh window report
    return;
  }
  if (frame->seq < cum_) {
    ++stats_.duplicate_frames;
    send_ack();
    return;
  }
  if (frame->seq == cum_) {
    deliver(frame);
    ++cum_;
    while (!parked_.empty() && parked_.begin()->first == cum_) {
      deliver(parked_.begin()->second);
      parked_.erase(parked_.begin());
      ++cum_;
    }
    send_ack();
    return;
  }
  // Out of order: park it if a reassembly slot is free and the frame is
  // within the receive window; otherwise drop it honestly (no ack — the
  // sender's RTO recovers).
  if (parked_.count(frame->seq)) {
    ++stats_.duplicate_frames;
    send_ack();
    return;
  }
  if (parked_.size() >= cfg_.reorder_slots ||
      frame->seq >= cum_ + cfg_.recv_frames) {
    ++stats_.reassembly_drops;
    return;
  }
  parked_.emplace(frame->seq, frame);
  ++stats_.out_of_order_frames;
  send_ack();
}

void Transport::deliver(const FramePtr& frame) {
  switch (frame->kind) {
    case Frame::Kind::kBegin:
      agent_.begin_image(frame->image_id);
      break;
    case Frame::Kind::kData:
      if (frame->stripped) {
        queue_repair(agent_.receive_stripped(frame->image_id, frame->batch));
      } else {
        agent_.receive_batch(frame->image_id, frame->batch);
      }
      break;
    case Frame::Kind::kEnd: {
      agent_.end_image(frame->image_id, frame->expected_chunks);
      // Safety net: re-request any recipe gap that is neither in flight nor
      // queued (e.g. a repair lost after its pending entry was recorded).
      std::vector<dedup::ChunkDigest> gaps;
      for (const auto& digest : agent_.missing_chunks(frame->image_id)) {
        if (repair_inflight_.count(digest)) continue;
        if (std::find(repair_backlog_.begin(), repair_backlog_.end(),
                      digest) != repair_backlog_.end()) {
          continue;
        }
        gaps.push_back(digest);
      }
      queue_repair(std::move(gaps));
      break;
    }
    case Frame::Kind::kProbe:
      break;
  }
  // Model the apply occupancy: a slow agent holds a receive buffer for
  // content/apply_bw (plus any fault-injected stall), shrinking the window
  // it advertises — the backpressure that reaches the sender.
  double cost = cfg_.agent_apply_bw > 0
                    ? static_cast<double>(frame->content_bytes) /
                          cfg_.agent_apply_bw
                    : 0.0;
  bool stalled = false;
  if (cfg_.faults.stall > 0 && rng_.next_double() < cfg_.faults.stall) {
    cost += cfg_.faults.stall_s;
    ++stats_.agent_stalls;
    stats_.agent_stall_seconds += cfg_.faults.stall_s;
    stalled = true;
  }
  if (cost > 0) {
    const double apply_start = std::max(now_, apply_busy_until_);
    apply_busy_until_ = apply_start + cost;
    ++apply_outstanding_;
    if (cfg_.tracer != nullptr) {
      cfg_.tracer->span(track_agent_, stalled ? "apply+stall" : "apply",
                        apply_start, apply_busy_until_,
                        {{"seq", std::to_string(frame->seq)}});
    }
    Event ev;
    ev.t = apply_busy_until_;
    ev.kind = Event::Kind::kApplyDone;
    schedule(std::move(ev));
  }
}

void Transport::send_ack() {
  Ack ack;
  ack.cum = cum_;
  ack.sacks.reserve(parked_.size());
  for (const auto& [seq, f] : parked_) ack.sacks.push_back(seq);
  ack.window = advertised_window();
  if (ack.window == 0) window_was_zero_ = true;
  const std::size_t content = sizeof(std::uint64_t) +
                              ack.sacks.size() * sizeof(std::uint64_t) +
                              sizeof(std::uint32_t);
  ++stats_.acks_sent;
  stats_.ack_wire_bytes += cfg_.link.msg_header_bytes + content;
  wire_send(1, content, "ack", [ack](double t) {
    Event ev;
    ev.t = t;
    ev.kind = Event::Kind::kAckArrive;
    ev.ack = ack;
    return ev;
  });
}

void Transport::queue_repair(std::vector<dedup::ChunkDigest> digests) {
  for (auto& digest : digests) repair_backlog_.push_back(digest);
}

void Transport::send_repair_requests() {
  while (!repair_backlog_.empty() &&
         repair_inflight_.size() < cfg_.repair_window) {
    std::vector<dedup::ChunkDigest> batch;
    const std::size_t room = cfg_.repair_window - repair_inflight_.size();
    const std::size_t n =
        std::min({repair_backlog_.size(), cfg_.repair_batch, room});
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(repair_backlog_.front());
      repair_backlog_.pop_front();
    }
    ++stats_.repair_requests;
    stats_.repair_digests_requested += batch.size();
    auto shared = std::make_shared<std::vector<dedup::ChunkDigest>>(batch);
    const double finish =
        wire_send(1, batch.size() * sizeof(dedup::ChunkDigest), "repair_req",
                  [shared](double t) {
                    Event ev;
                    ev.t = t;
                    ev.kind = Event::Kind::kRepairReqArrive;
                    ev.digests = *shared;
                    return ev;
                  });
    for (const auto& digest : batch) {
      PendingRepair pr;
      pr.rto = cfg_.repair_rto_s;
      pr.expires = finish + pr.rto;
      repair_inflight_.insert_or_assign(digest, pr);
    }
  }
}

void Transport::on_repair_data(
    std::vector<std::pair<dedup::ChunkDigest, ByteVec>>&& repairs) {
  for (auto& [digest, payload] : repairs) {
    // The event owns this delivery's copy of the payload; hand it to the
    // agent instead of re-copying. A duplicated repair frame returns false
    // before touching the vector.
    agent_.receive_repair(digest, std::move(payload));
    repair_inflight_.erase(digest);
  }
}

// --- wire + event machinery ----------------------------------------------

double Transport::wire_send(int dir, std::size_t content, const char* what,
                            const std::function<Event(double)>& make_event) {
  double& busy = dir == 0 ? tx_busy_until_ : rx_busy_until_;
  const std::size_t wire = cfg_.link.msg_header_bytes + content;
  const double start = std::max(now_, busy);
  const double finish =
      start + cfg_.link.msg_s + static_cast<double>(wire) / cfg_.link.bw;
  busy = finish;
  if (cfg_.tracer != nullptr) {
    cfg_.tracer->span(dir == 0 ? track_tx_ : track_rx_, what, start, finish,
                      {{"bytes", std::to_string(wire)}});
  }
  if (cfg_.faults.drop > 0 && rng_.next_double() < cfg_.faults.drop) {
    ++stats_.frames_dropped;
    if (cfg_.tracer != nullptr) {
      cfg_.tracer->instant(dir == 0 ? track_tx_ : track_rx_, "drop", finish,
                           {{"frame", what}});
    }
    return finish;
  }
  double arrive = finish + cfg_.latency_s;
  if (cfg_.faults.delay > 0 && rng_.next_double() < cfg_.faults.delay) {
    arrive += cfg_.faults.delay_s;
    ++stats_.frames_delayed;
  }
  if (cfg_.faults.reorder > 0 && rng_.next_double() < cfg_.faults.reorder) {
    arrive += cfg_.faults.reorder_jitter_s * rng_.next_double();
    ++stats_.frames_reordered;
  }
  schedule(make_event(arrive));
  if (cfg_.faults.duplicate > 0 &&
      rng_.next_double() < cfg_.faults.duplicate) {
    ++stats_.frames_duplicated;
    schedule(make_event(arrive + cfg_.faults.reorder_jitter_s *
                                     (0.1 + rng_.next_double())));
  }
  return finish;
}

void Transport::schedule(Event ev) {
  ev.id = next_event_id_++;
  events_.push(std::move(ev));
}

double Transport::next_timeout() const {
  double t = kInf;
  for (const auto& [seq, out] : unacked_) {
    if (!out.sacked) t = std::min(t, out.expires);
  }
  if (probing_) t = std::min(t, probe_deadline_);
  for (const auto& [digest, pr] : repair_inflight_) {
    t = std::min(t, pr.expires);
  }
  return t;
}

void Transport::fire_timeouts() {
  // One action per call: the pump loop re-evaluates after every step.
  // Earliest expired unsacked data frame first.
  Outstanding* earliest = nullptr;
  for (auto& [seq, out] : unacked_) {
    if (out.sacked || out.expires > now_) continue;
    if (!earliest || out.expires < earliest->expires) earliest = &out;
  }
  if (earliest) {
    ++stats_.rto_fires;
    retransmit_frame(*earliest);
    return;
  }
  if (probing_ && probe_deadline_ <= now_) {
    fire_probe();
    return;
  }
  // Expired repair requests: re-request a batch, sorted by digest bytes so
  // the schedule is deterministic regardless of hash-map iteration order.
  std::vector<dedup::ChunkDigest> expired;
  for (const auto& [digest, pr] : repair_inflight_) {
    if (pr.expires <= now_) expired.push_back(digest);
  }
  if (expired.empty()) return;
  std::sort(expired.begin(), expired.end(),
            [](const dedup::ChunkDigest& a, const dedup::ChunkDigest& b) {
              return a.bytes < b.bytes;
            });
  if (expired.size() > cfg_.repair_batch) expired.resize(cfg_.repair_batch);
  ++stats_.repair_requests;
  stats_.repair_digests_requested += expired.size();
  stats_.repair_retries += expired.size();
  auto shared = std::make_shared<std::vector<dedup::ChunkDigest>>(expired);
  const double finish =
      wire_send(1, expired.size() * sizeof(dedup::ChunkDigest), "repair_req",
                [shared](double t) {
                  Event ev;
                  ev.t = t;
                  ev.kind = Event::Kind::kRepairReqArrive;
                  ev.digests = *shared;
                  return ev;
                });
  for (const auto& digest : expired) {
    auto& pr = repair_inflight_[digest];
    ++pr.retries;
    pr.rto = std::min(pr.rto * cfg_.rto_backoff, cfg_.rto_max_s);
    pr.expires = finish + pr.rto;
  }
}

bool Transport::idle() const {
  return backlog_.empty() && unacked_.empty() && parked_.empty() &&
         apply_outstanding_ == 0 && repair_backlog_.empty() &&
         repair_inflight_.empty() && events_.empty();
}

void Transport::pump(std::size_t target_backlog) {
  while (true) {
    while (can_send()) transmit_next();
    send_repair_requests();
    // Zero-window persist: nothing outstanding to clock an ack, data queued,
    // window shut — arm the probe timer instead of deadlocking.
    if (backlog_.empty()) {
      probing_ = false;
    } else if (unacked_.empty() && peer_window_ == 0 && !probing_) {
      probing_ = true;
      probe_rto_ = cfg_.rto_s;
      probe_deadline_ = now_ + probe_rto_;
    }
    if (target_backlog > 0) {
      if (backlog_.size() <= target_backlog) return;
    } else if (idle()) {
      return;
    }
    const double tq = events_.empty() ? kInf : events_.top().t;
    const double tt = next_timeout();
    const double tnext = std::min(tq, tt);
    if (tnext == kInf) return;  // nothing can make progress (unreachable)
    // Window-stall accounting: the sender has frames spooled but the flow-
    // control window (its own or the agent's advertised one) is shut. Only
    // counts once the tx wire has drained — while it is still serializing
    // earlier frames the wire, not the window, is the binding constraint.
    const bool blocked =
        !backlog_.empty() && !can_send() && tx_busy_until_ <= now_;
    if (blocked) {
      if (!stalled_) {
        stalled_ = true;
        ++stats_.window_stalls;
      }
      const double stall = std::max(0.0, tnext - now_);
      stats_.window_stall_seconds += stall;
      if (cfg_.tracer != nullptr && stall > 0) {
        cfg_.tracer->span(track_stall_, "window_stall", now_, tnext);
      }
    } else {
      stalled_ = false;
    }
    now_ = std::max(now_, tnext);
    if (tt <= tq) {
      fire_timeouts();
      continue;
    }
    Event ev = events_.top();
    events_.pop();
    switch (ev.kind) {
      case Event::Kind::kFrameArrive:
        on_frame(ev.frame);
        break;
      case Event::Kind::kAckArrive:
        handle_ack(ev.ack);
        break;
      case Event::Kind::kRepairReqArrive:
        serve_repair(ev.digests);
        break;
      case Event::Kind::kRepairDataArrive:
        on_repair_data(std::move(ev.repairs));
        break;
      case Event::Kind::kApplyDone:
        if (apply_outstanding_ > 0) --apply_outstanding_;
        if (window_was_zero_ && advertised_window() > 0) {
          window_was_zero_ = false;
          send_ack();  // window-update so the sender can resume
        }
        break;
    }
  }
}

}  // namespace shredder::backup
