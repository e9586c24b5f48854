#ifndef DPBENCH_SPAN_TRACE_H_
#define DPBENCH_SPAN_TRACE_H_

// In-memory span recording for dpstore_bench's traced run. Spans are taken
// at layer boundaries from the benchmark's own code: an `op` span around
// each QueryRead/QueryWrite, and a child `exchange` span per storage
// exchange (Submit to Wait) recorded by TimedBackend, a forwarding
// StorageBackend the benchmark interposes through
// SchemeConfig::backend_factory. Nothing inside the library is touched.

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "storage/backend.h"

namespace dpstore {
namespace bench {

enum class SpanKind : uint8_t { kOp, kDownload, kUpload, kDpfEval };

inline const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp: return "op";
    case SpanKind::kDownload: return "exchange:download";
    case SpanKind::kUpload: return "exchange:upload";
    case SpanKind::kDpfEval: return "exchange:dpf_eval";
  }
  return "?";
}

/// One span. Exchange spans name their parent by `op`, the index of the
/// op span they ran under; an op span carries its own index there.
struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t op = 0;
  uint32_t blocks = 0;
  uint32_t aux_bytes = 0;
  SpanKind kind = SpanKind::kOp;
  bool ok = true;
};

/// Span sink for one client thread. Disabled, it records nothing, so a
/// scheme built over TimedBackends can also run an untraced pass.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  uint64_t Now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  void BeginOp() { op_start_ = Now(); }
  void EndOp(bool ok) {
    spans_.push_back({op_start_, Now(), next_op_, 0, 0, SpanKind::kOp, ok});
    ++next_op_;
  }
  void RecordExchange(uint64_t start_ns, SpanKind kind, uint32_t blocks,
                      uint32_t aux_bytes, bool ok) {
    spans_.push_back({start_ns, Now(), next_op_, blocks, aux_bytes, kind, ok});
  }

  /// Hands over the spans recorded so far and starts a fresh op count.
  std::vector<Span> Take() {
    next_op_ = 0;
    return std::exchange(spans_, {});
  }

 private:
  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  uint64_t op_start_ = 0;
  uint32_t next_op_ = 0;
  std::vector<Span> spans_;
};

/// Forwards every call to `inner` and, while the tracer is enabled,
/// records one exchange span from Submit to the matching Wait's return.
class TimedBackend : public StorageBackend {
 public:
  TimedBackend(std::unique_ptr<StorageBackend> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  uint64_t n() const override { return inner_->n(); }
  size_t block_size() const override { return inner_->block_size(); }
  Status SetArray(std::vector<Block> blocks) override {
    return inner_->SetArray(std::move(blocks));
  }

  Ticket Submit(StorageRequest request) override {
    if (!tracer_->enabled()) return inner_->Submit(std::move(request));
    Pending pending;
    pending.start_ns = tracer_->Now();
    switch (request.op) {
      case StorageRequest::Op::kDownload:
        pending.kind = SpanKind::kDownload;
        pending.blocks = static_cast<uint32_t>(request.indices.size());
        break;
      case StorageRequest::Op::kUpload:
        pending.kind = SpanKind::kUpload;
        pending.blocks = static_cast<uint32_t>(request.indices.size());
        break;
      case StorageRequest::Op::kDpfEval:
        pending.kind = SpanKind::kDpfEval;
        pending.blocks = 1;
        pending.aux_bytes = static_cast<uint32_t>(
            request.payload.empty() ? 0 : request.payload.block_size());
        break;
    }
    pending.ticket = inner_->Submit(std::move(request));
    pending_.push_back(pending);
    return pending.ticket;
  }

  StatusOr<StorageReply> Wait(Ticket ticket) override {
    StatusOr<StorageReply> reply = inner_->Wait(ticket);
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->ticket != ticket) continue;
      tracer_->RecordExchange(it->start_ns, it->kind, it->blocks,
                              it->aux_bytes, reply.ok());
      pending_.erase(it);
      break;
    }
    return reply;
  }

  void BeginQuery() override { inner_->BeginQuery(); }
  const Transcript& transcript() const override {
    return inner_->transcript();
  }
  void ResetTranscript() override { inner_->ResetTranscript(); }
  void SetTranscriptCountingOnly(bool counting_only) override {
    inner_->SetTranscriptCountingOnly(counting_only);
  }
  Block PeekBlock(BlockId index) const override {
    return inner_->PeekBlock(index);
  }
  void CorruptBlock(BlockId index) override { inner_->CorruptBlock(index); }
  void SetFailureRate(double rate, uint64_t seed = 7) override {
    inner_->SetFailureRate(rate, seed);
  }
  double MeasuredWallMs() const override { return inner_->MeasuredWallMs(); }
  uint64_t RetriedAttempts() const override {
    return inner_->RetriedAttempts();
  }

 protected:
  StatusOr<StorageReply> Execute(StorageRequest request) override {
    return Wait(Submit(std::move(request)));
  }

 private:
  struct Pending {
    Ticket ticket = 0;
    uint64_t start_ns = 0;
    SpanKind kind = SpanKind::kDownload;
    uint32_t blocks = 0;
    uint32_t aux_bytes = 0;
  };

  std::unique_ptr<StorageBackend> inner_;
  Tracer* tracer_;
  // Exchanges submitted while tracing, awaiting their Wait. Schemes keep
  // at most a few in flight, so a flat vector is enough.
  std::vector<Pending> pending_;
};

/// Wraps every backend `inner` builds in a TimedBackend feeding `tracer`.
inline BackendFactory TimedFactory(BackendFactory inner, Tracer* tracer) {
  return [inner = std::move(inner), tracer](uint64_t n, size_t block_size) {
    return std::unique_ptr<StorageBackend>(
        std::make_unique<TimedBackend>(inner(n, block_size), tracer));
  };
}

}  // namespace bench
}  // namespace dpstore

#endif  // DPBENCH_SPAN_TRACE_H_
