#include "src/apps/actors.h"

#include <cstring>

#include "src/common/logging.h"

namespace demi {

// --- DemiServer ---

DemiServer::DemiServer(LibOS* libos, std::uint16_t port, Handler handler)
    : libos_(libos), handler_(std::move(handler)) {
  listen_qd_ = *libos_->Socket();
  DEMI_CHECK(libos_->Bind(listen_qd_, port).ok());
  DEMI_CHECK(libos_->Listen(listen_qd_).ok());
  accept_token_ = *libos_->AcceptAsync(listen_qd_);
  libos_->sim().AddPoller(this);
}

DemiServer::~DemiServer() { libos_->sim().RemovePoller(this); }

bool DemiServer::Poll() {
  bool progress = false;

  if (accept_token_ != kInvalidQToken && libos_->OpDone(accept_token_)) {
    auto r = libos_->TakeResult(accept_token_);
    accept_token_ = kInvalidQToken;
    progress = true;
    if (r.ok() && r->status.ok()) {
      Conn conn{r->new_qd};
      if (auto pop = libos_->Pop(conn.qd); pop.ok()) {
        conn.pop = *pop;
      }
      conns_.push_back(conn);
    }
    if (auto t = libos_->AcceptAsync(listen_qd_); t.ok()) {
      accept_token_ = *t;
    }
  }

  for (Conn& conn : conns_) {
    if (conn.push != kInvalidQToken && libos_->OpDone(conn.push)) {
      (void)libos_->TakeResult(conn.push);
      conn.push = kInvalidQToken;
      progress = true;
    }
    // Process the next request only when the previous reply has been handed off.
    if (conn.pop != kInvalidQToken && conn.push == kInvalidQToken &&
        libos_->OpDone(conn.pop)) {
      auto r = libos_->TakeResult(conn.pop);
      conn.pop = kInvalidQToken;
      progress = true;
      if (!r.ok() || !r->status.ok()) {
        (void)libos_->Close(conn.qd);
        conn.dead = true;  // no token is outstanding: pop failed, push was done
        continue;
      }
      if (auto push = libos_->Push(conn.qd, handler_(r->sga)); push.ok()) {
        conn.push = *push;
        ++served_;
      }
      if (auto pop = libos_->Pop(conn.qd); pop.ok()) {
        conn.pop = *pop;
      }
    }
  }
  std::erase_if(conns_, [](const Conn& conn) { return conn.dead; });
  return progress;
}

// --- DemiClient ---

DemiClient::DemiClient(LibOS* libos, Endpoint server, std::uint64_t target_requests,
                       NextRequest next_request, ReplyOk reply_ok)
    : libos_(libos),
      server_(server),
      target_(target_requests),
      next_request_(std::move(next_request)),
      reply_ok_(std::move(reply_ok)) {
  qd_ = *libos_->Socket();
  auto token = libos_->ConnectAsync(qd_, server_);
  DEMI_CHECK(token.ok());
  token_ = *token;
  libos_->sim().AddPoller(this);
}

DemiClient::~DemiClient() { libos_->sim().RemovePoller(this); }

bool DemiClient::Poll() {
  switch (state_) {
    case State::kConnecting: {
      if (!libos_->OpDone(token_)) {
        return false;
      }
      auto r = libos_->TakeResult(token_);
      token_ = kInvalidQToken;
      if (!r.ok() || !r->status.ok()) {
        failed_ = true;
        state_ = State::kDone;
        return true;
      }
      state_ = State::kSend;
      return true;
    }
    case State::kSend: {
      sent_at_ = libos_->sim().now();
      auto push = libos_->Push(qd_, next_request_());
      if (!push.ok()) {
        failed_ = true;
        state_ = State::kDone;
        return true;
      }
      token_ = *push;
      state_ = State::kWaitPush;
      return true;
    }
    case State::kWaitPush: {
      if (!libos_->OpDone(token_)) {
        return false;
      }
      (void)libos_->TakeResult(token_);
      auto pop = libos_->Pop(qd_);
      if (!pop.ok()) {
        failed_ = true;
        state_ = State::kDone;
        return true;
      }
      token_ = *pop;
      state_ = State::kWaitPop;
      return true;
    }
    case State::kWaitPop: {
      if (!libos_->OpDone(token_)) {
        return false;
      }
      auto r = libos_->TakeResult(token_);
      token_ = kInvalidQToken;
      if (!r.ok() || !r->status.ok() || !reply_ok_(r->sga)) {
        failed_ = true;
        state_ = State::kDone;
        return true;
      }
      latency_.Record(static_cast<std::uint64_t>(libos_->sim().now() - sent_at_));
      if (++completed_ >= target_) {
        (void)libos_->Close(qd_);
        state_ = State::kDone;
      } else {
        state_ = State::kSend;
      }
      return true;
    }
    case State::kDone:
      return false;
  }
  return false;
}

// --- Echo and KV over Demikernel queues ---

SgArray EchoReply(const SgArray& request) { return request; }

DemiClient::NextRequest EchoRequests(LibOS* libos, std::size_t msg_bytes) {
  return [libos, msg_bytes] {
    SgArray sga = libos->SgaAlloc(msg_bytes);
    std::memset(sga.segment(0).mutable_data(), 'e', msg_bytes);
    return sga;
  };
}

DemiClient::ReplyOk EchoReplyOk(std::size_t msg_bytes) {
  return [msg_bytes](const SgArray& reply) { return reply.total_bytes() == msg_bytes; };
}

DemiServer::Handler KvReplies(KvEngine* engine) {
  return [engine](const SgArray& request) {
    // §3.2's payoff: the element IS a complete request — parse it once, zero copy.
    auto args = ParseRespCommandBuffers(request.Flatten());
    KvReply reply;
    if (args.ok()) {
      reply = engine->Execute(*args);
    } else {
      reply.kind = RespValue::Kind::kError;
      reply.text = "ERR protocol error";
    }
    if (reply.kind != RespValue::Kind::kBulk) {
      return SgArray(Buffer::CopyOf(EncodeRespValue(reply.ToValue())));
    }
    // The value segment REFERENCES the stored value (§4.5 zero copy + free
    // protection); only the tiny RESP envelope is fresh memory.
    SgArray sga;
    sga.Append(Buffer::CopyOf("$" + std::to_string(reply.bulk.size()) + "\r\n"));
    sga.Append(reply.bulk);
    sga.Append(Buffer::CopyOf("\r\n"));
    return sga;
  };
}

DemiClient::NextRequest KvRequests(LibOS* libos, KvWorkload* workload) {
  return [libos, workload] {
    const std::string wire = EncodeRespCommand(workload->Next());
    SgArray sga = libos->SgaAlloc(wire.size());
    std::memcpy(sga.segment(0).mutable_data(), wire.data(), wire.size());
    return sga;
  };
}

bool AnyReply(const SgArray&) { return true; }

// --- PosixServer ---

PosixServer::PosixServer(SimKernel* kernel, std::uint16_t port, Handler handler)
    : kernel_(kernel), handler_(std::move(handler)) {
  listen_fd_ = *kernel_->Socket();
  DEMI_CHECK(kernel_->Bind(listen_fd_, port).ok());
  DEMI_CHECK(kernel_->Listen(listen_fd_).ok());
  epfd_ = *kernel_->EpollCreate();
  DEMI_CHECK(kernel_->EpollAdd(epfd_, listen_fd_, kEpollIn).ok());
  kernel_->host().sim().AddPoller(this);
}

PosixServer::~PosixServer() { kernel_->host().sim().RemovePoller(this); }

bool PosixServer::Poll() {
  bool want_outbox_flush = false;
  for (const Conn& conn : conns_) {
    if (!conn.outbox.empty()) {
      want_outbox_flush = true;
      break;
    }
  }
  if (!kernel_->EpollAnyReady(epfd_) && !want_outbox_flush) {
    return false;  // asleep in epoll_wait
  }
  auto events = kernel_->EpollWait(epfd_, 64);
  if (!events.ok()) {
    return false;
  }
  bool progress = !events->empty() || want_outbox_flush;

  for (const EpollEvent& ev : *events) {
    if (ev.fd == listen_fd_) {
      while (true) {
        auto fd = kernel_->Accept(listen_fd_);
        if (!fd.ok()) {
          break;
        }
        (void)kernel_->EpollAdd(epfd_, *fd, kEpollIn);
        conns_.push_back(Conn{*fd, handler_(), "", false});
      }
      continue;
    }
    for (Conn& conn : conns_) {
      // A fd closed earlier in this batch may already be reused by a new connection.
      if (conn.fd != ev.fd || conn.dead) {
        continue;
      }
      std::string received;
      while (true) {
        auto data = kernel_->ReadSock(conn.fd, 65536);
        if (!data.ok()) {
          if (data.code() != ErrorCode::kWouldBlock) {
            (void)kernel_->EpollDel(epfd_, conn.fd);
            (void)kernel_->CloseFd(conn.fd);
            conn.dead = true;
          }
          break;
        }
        received.append(data->AsStringView());
      }
      // Bytes that arrived with the close are still processed (their replies are
      // never sent).
      if (!conn.step(received, conn.outbox, served_)) {
        (void)kernel_->EpollDel(epfd_, conn.fd);
        (void)kernel_->CloseFd(conn.fd);
        conn.dead = true;
      }
      break;
    }
  }
  std::erase_if(conns_, [](const Conn& conn) { return conn.dead; });

  // Stage partial writes in the outbox.
  for (Conn& conn : conns_) {
    while (!conn.outbox.empty()) {
      auto written = kernel_->WriteSock(conn.fd, Buffer::CopyOf(conn.outbox));
      if (!written.ok()) {
        break;
      }
      conn.outbox.erase(0, *written);
    }
  }
  return progress;
}

PosixServer::Handler PosixEcho(std::size_t msg_bytes) {
  return [msg_bytes]() -> PosixServer::Step {
    return [msg_bytes, inbox = std::string()](std::string_view received,
                                              std::string& outbox,
                                              std::uint64_t& served) mutable {
      inbox.append(received);
      while (inbox.size() >= msg_bytes) {
        outbox.append(inbox, 0, msg_bytes);
        inbox.erase(0, msg_bytes);
        ++served;
      }
      return true;
    };
  };
}

PosixServer::Handler PosixKv(KvEngine* engine) {
  return [engine]() -> PosixServer::Step {
    return [engine, parser = RespRequestParser()](std::string_view received,
                                                  std::string& outbox,
                                                  std::uint64_t& served) mutable {
      parser.Feed(received);
      // Drain complete requests; incomplete tails are the §3.2 wasted scans.
      const std::uint64_t scans_before = parser.incomplete_scans();
      while (true) {
        auto next = parser.Next();
        if (!next.ok()) {
          return false;
        }
        if (!next->has_value()) {
          break;
        }
        outbox += EncodeRespValue(engine->Execute(**next));
        ++served;
      }
      const std::uint64_t new_scans = parser.incomplete_scans() - scans_before;
      if (new_scans > 0) {
        // The server woke up, crossed the kernel, and scanned — for nothing.
        HostCpu& host = engine->host();
        host.Count(Counter::kStreamScans, new_scans);
        host.Work(static_cast<TimeNs>(new_scans) * host.cost().partial_scan_ns);
      }
      return true;
    };
  };
}

// --- PosixEchoClient ---

PosixEchoClient::PosixEchoClient(SimKernel* kernel, Endpoint server,
                                 std::size_t msg_bytes, std::uint64_t target_requests)
    : kernel_(kernel), server_(server), msg_bytes_(msg_bytes), target_(target_requests) {
  fd_ = *kernel_->Socket();
  DEMI_CHECK(kernel_->Connect(fd_, server_).ok());
  kernel_->host().sim().AddPoller(this);
}

PosixEchoClient::~PosixEchoClient() { kernel_->host().sim().RemovePoller(this); }

bool PosixEchoClient::Poll() {
  switch (state_) {
    case State::kConnecting:
      if (kernel_->ConnectSucceeded(fd_)) {
        state_ = State::kSend;
        return true;
      }
      if (!kernel_->ConnectInProgress(fd_)) {
        state_ = State::kDone;  // refused
        return true;
      }
      return false;
    case State::kSend: {
      sent_at_ = kernel_->host().now();
      auto written = kernel_->WriteSock(fd_, Buffer::CopyOf(std::string(msg_bytes_, 'p')));
      if (!written.ok()) {
        return false;  // retry next poll
      }
      received_ = 0;
      state_ = State::kReceive;
      return true;
    }
    case State::kReceive: {
      bool progress = false;
      while (received_ < msg_bytes_) {
        auto data = kernel_->ReadSock(fd_, msg_bytes_ - received_);
        if (!data.ok()) {
          if (data.code() != ErrorCode::kWouldBlock) {
            state_ = State::kDone;
            return true;
          }
          return progress;
        }
        received_ += data->size();
        progress = true;
      }
      latency_.Record(static_cast<std::uint64_t>(kernel_->host().now() - sent_at_));
      if (++completed_ >= target_) {
        (void)kernel_->CloseFd(fd_);
        state_ = State::kDone;
      } else {
        state_ = State::kSend;
      }
      return true;
    }
    case State::kDone:
      return false;
  }
  return false;
}

// --- PosixKvClient ---

PosixKvClient::PosixKvClient(SimKernel* kernel, Endpoint server, KvWorkload* workload,
                             std::uint64_t target_requests, int fragments,
                             TimeNs fragment_gap_ns)
    : kernel_(kernel),
      server_(server),
      workload_(workload),
      target_(target_requests),
      fragments_(std::max(fragments, 1)),
      fragment_gap_ns_(fragment_gap_ns) {
  fd_ = *kernel_->Socket();
  DEMI_CHECK(kernel_->Connect(fd_, server_).ok());
  kernel_->host().sim().AddPoller(this);
}

PosixKvClient::~PosixKvClient() { kernel_->host().sim().RemovePoller(this); }

bool PosixKvClient::Poll() {
  switch (state_) {
    case State::kConnecting:
      if (kernel_->ConnectSucceeded(fd_)) {
        state_ = State::kSend;
        return true;
      }
      if (!kernel_->ConnectInProgress(fd_)) {
        state_ = State::kDone;
        return true;
      }
      return false;
    case State::kSend: {
      if (wire_.empty()) {
        wire_ = EncodeRespCommand(workload_->Next());
        wire_sent_ = 0;
        sent_at_ = kernel_->host().now();
        next_write_at_ = sent_at_;
      }
      if (kernel_->host().now() < next_write_at_) {
        return false;
      }
      const std::size_t chunk_size =
          (wire_.size() + static_cast<std::size_t>(fragments_) - 1) /
          static_cast<std::size_t>(fragments_);
      const std::size_t take = std::min(chunk_size, wire_.size() - wire_sent_);
      auto written =
          kernel_->WriteSock(fd_, Buffer::CopyOf(std::string_view(wire_).substr(wire_sent_, take)));
      if (!written.ok()) {
        return false;
      }
      wire_sent_ += *written;
      if (wire_sent_ >= wire_.size()) {
        wire_.clear();
        state_ = State::kReceive;
      } else if (fragment_gap_ns_ > 0) {
        next_write_at_ = kernel_->host().now() + fragment_gap_ns_;
        kernel_->host().sim().Schedule(fragment_gap_ns_, [] {});  // wake at the boundary
      }
      return true;
    }
    case State::kReceive: {
      bool progress = false;
      while (true) {
        auto data = kernel_->ReadSock(fd_, 65536);
        if (!data.ok()) {
          if (data.code() != ErrorCode::kWouldBlock) {
            state_ = State::kDone;
            return true;
          }
          break;
        }
        responses_.Feed(data->AsStringView());
        progress = true;
      }
      auto reply = responses_.Next();
      if (!reply.ok()) {
        state_ = State::kDone;
        return true;
      }
      if (!reply->has_value()) {
        return progress;
      }
      latency_.Record(static_cast<std::uint64_t>(kernel_->host().now() - sent_at_));
      if (++completed_ >= target_) {
        (void)kernel_->CloseFd(fd_);
        state_ = State::kDone;
      } else {
        state_ = State::kSend;
      }
      return true;
    }
    case State::kDone:
      return false;
  }
  return false;
}

// --- MtcpEchoServer ---

MtcpEchoServer::MtcpEchoServer(MtcpStack* stack, std::uint16_t port, std::size_t msg_bytes)
    : stack_(stack), msg_bytes_(msg_bytes) {
  listen_fd_ = *stack_->Socket();
  DEMI_CHECK(stack_->Bind(listen_fd_, port).ok());
  DEMI_CHECK(stack_->Listen(listen_fd_).ok());
  // MtcpStack registers its own poller; this actor registers with the same sim via
  // the stack's host.
  stack_->host().sim().AddPoller(this);
}

MtcpEchoServer::~MtcpEchoServer() { stack_->host().sim().RemovePoller(this); }

bool MtcpEchoServer::Poll() {
  bool progress = false;
  while (true) {
    auto fd = stack_->Accept(listen_fd_);
    if (!fd.ok()) {
      break;
    }
    conns_.push_back(Conn{*fd, "", false});
    progress = true;
  }
  for (Conn& conn : conns_) {
    if (conn.dead) {
      continue;
    }
    while (stack_->Readable(conn.fd)) {
      auto data = stack_->Read(conn.fd, 65536);
      if (!data.ok()) {
        if (data.code() != ErrorCode::kWouldBlock) {
          (void)stack_->CloseFd(conn.fd);
          conn.dead = true;
        }
        break;
      }
      conn.inbox.append(data->AsStringView());
      progress = true;
    }
    while (conn.inbox.size() >= msg_bytes_) {
      auto written =
          stack_->Write(conn.fd, Buffer::CopyOf(std::string_view(conn.inbox).substr(0, msg_bytes_)));
      if (!written.ok()) {
        break;
      }
      conn.inbox.erase(0, msg_bytes_);
      ++served_;
      progress = true;
    }
  }
  return progress;
}

}  // namespace demi
