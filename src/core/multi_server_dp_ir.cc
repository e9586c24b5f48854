#include "core/multi_server_dp_ir.h"

#include <cmath>
#include <string>
#include <utility>

#include "crypto/dpf.h"
#include "storage/kernels.h"

namespace dpstore {

namespace {

uint8_t DomainDepthFor(uint64_t n) {
  uint8_t depth = 1;
  while ((uint64_t{1} << depth) < n) ++depth;
  return depth;
}

}  // namespace

MultiServerDpIr::MultiServerDpIr(std::vector<StorageBackend*> servers,
                                 MultiServerDpIrOptions options)
    : servers_(std::move(servers)), options_(options), rng_(options.seed) {
  DPSTORE_CHECK_GE(options_.num_servers, 2u);
  DPSTORE_CHECK_GE(servers_.size(), options_.num_servers)
      << "need at least num_servers endpoints (extras are spares)";
  n_ = servers_[0]->n();
  for (StorageBackend* s : servers_) {
    DPSTORE_CHECK(s != nullptr);
    DPSTORE_CHECK_EQ(s->n(), n_) << "replicas must have equal size";
  }
  for (size_t i = 0; i < servers_.size(); ++i) {
    if (i < options_.num_servers) {
      active_.push_back(i);
    } else {
      spares_.push_back(i);
    }
  }
  DPSTORE_CHECK_GT(options_.alpha, 0.0);
  DPSTORE_CHECK_LT(options_.alpha, 1.0);
  DPSTORE_CHECK_GE(options_.epsilon, 0.0);
  double denom = (static_cast<double>(active_.size()) -
                  (1.0 - options_.alpha)) *
                 std::expm1(options_.epsilon);
  double k = denom <= 0.0
                 ? static_cast<double>(n_)
                 : (1.0 - options_.alpha) * static_cast<double>(n_) / denom;
  if (k < 1.0) k = 1.0;
  if (k > static_cast<double>(n_)) k = static_cast<double>(n_);
  k_ = static_cast<uint64_t>(std::ceil(k));
  if (options_.use_dpf) {
    DPSTORE_CHECK_EQ(active_.size(), 2u)
        << "the DPF retrieval path needs exactly two non-colluding replicas";
    DPSTORE_CHECK_LE(DomainDepthFor(n_), crypto::kMaxDpfDepth);
  }
}

double MultiServerDpIr::achieved_epsilon() const {
  return std::log1p(
      (1.0 - options_.alpha) * static_cast<double>(n_) /
      (static_cast<double>(k_) *
       (static_cast<double>(active_.size()) - (1.0 - options_.alpha))));
}

void MultiServerDpIr::FailoverSlot(uint64_t slot, const Status& why) {
  std::string entry = "query " + std::to_string(queries_) + ": replica " +
                      std::to_string(active_[slot]) + " failed (" +
                      StatusCodeToString(why.code()) + ")";
  if (spares_.empty()) {
    entry += ", no spare left";
  } else {
    entry += ", failing over to replica " + std::to_string(spares_.front());
    active_[slot] = spares_.front();
    spares_.erase(spares_.begin());
    ++failovers_;
  }
  failover_log_.push_back(std::move(entry));
}

StatusOr<std::optional<Block>> MultiServerDpIr::Query(BlockId index) {
  if (index >= n_) {
    return OutOfRangeError("MultiServerDpIr::Query index out of range");
  }
  if (options_.use_dpf) return QueryDpf(index);
  ++queries_;
  const uint64_t d = active_.size();
  const bool error_branch = rng_.Bernoulli(options_.alpha);
  const uint64_t real_server = error_branch ? d : rng_.Uniform(d);

  // Phase 1 - submit every replica's subset as one exchange message before
  // waiting on any: the D per-replica roundtrips genuinely overlap on a
  // backend that can (socket, cluster), matching the "1 roundtrip per
  // replica, issued in parallel" accounting this scheme always advertised.
  std::vector<std::vector<uint64_t>> download_sets(d);
  std::vector<Ticket> tickets(d);
  for (uint64_t s = 0; s < d; ++s) {
    ActiveServer(s)->BeginQuery();
    std::vector<uint64_t>& download_set = download_sets[s];
    if (s == real_server) {
      if (k_ >= n_) {
        download_set.resize(n_);
        for (uint64_t i = 0; i < n_; ++i) download_set[i] = i;
      } else {
        download_set = rng_.SampleDistinctExcluding(k_ - 1, n_, index);
        download_set.push_back(index);
      }
    } else {
      download_set = rng_.SampleDistinct(k_, n_);
    }
    rng_.Shuffle(&download_set);
    tickets[s] =
        ActiveServer(s)->Submit(StorageRequest::DownloadOf(download_set));
  }
  // Phase 2 - collect the replies. Every ticket is waited on even after a
  // failure: an abandoned ticket would leak its parked reply in the
  // backend forever (tickets are single-use and evicted only by Wait).
  // A failed slot fails the whole query atomically AND is swapped for a
  // spare so the caller's retry (fresh subsets, fresh masks) runs against
  // a live ensemble.
  std::optional<Block> result;
  Status first_error = OkStatus();
  for (uint64_t s = 0; s < d; ++s) {
    // Wait through the PRE-failover server for this slot: the ticket was
    // issued there. FailoverSlot below only affects later queries.
    StorageBackend* server = ActiveServer(s);
    StatusOr<StorageReply> reply = server->Wait(tickets[s]);
    if (!reply.ok()) {
      if (first_error.ok()) first_error = reply.status();
      FailoverSlot(s, reply.status());
      continue;
    }
    if (s == real_server) {
      // The reply is one flat buffer; only the real record is copied out.
      for (size_t i = 0; i < download_sets[s].size(); ++i) {
        if (download_sets[s][i] == index) {
          result = ToBlock(reply->blocks[i]);
        }
      }
    }
  }
  DPSTORE_RETURN_IF_ERROR(first_error);
  if (error_branch) return std::optional<Block>();
  DPSTORE_CHECK(result.has_value());
  return result;
}

StatusOr<std::optional<Block>> MultiServerDpIr::QueryDpf(BlockId index) {
  // The error branch keys the eval to a uniform dummy point instead of
  // skipping it: both branches submit the same exchanges (one K-subset
  // download and one eval per replica), so the transcript SHAPE carries
  // no signal about which branch ran.
  ++queries_;
  const uint64_t d = active_.size();  // == 2 on this path (ctor CHECK)
  const bool error_branch = rng_.Bernoulli(options_.alpha);
  const uint64_t eval_point = error_branch ? rng_.Uniform(n_) : index;
  DPSTORE_ASSIGN_OR_RETURN(
      crypto::DpfKeyPair keys,
      crypto::DpfGen(eval_point, DomainDepthFor(n_)));
  std::vector<uint8_t> key_bytes[2] = {keys.key0.Serialize(),
                                       keys.key1.Serialize()};

  // Submit everything before waiting on anything, as in the planted path:
  // all-dummy cover subsets first, then the eval pair.
  std::vector<Ticket> subset_tickets(d);
  std::vector<Ticket> eval_tickets(d);
  for (uint64_t s = 0; s < d; ++s) {
    ActiveServer(s)->BeginQuery();
    std::vector<uint64_t> download_set = rng_.SampleDistinct(k_, n_);
    rng_.Shuffle(&download_set);
    subset_tickets[s] =
        ActiveServer(s)->Submit(StorageRequest::DownloadOf(download_set));
    eval_tickets[s] = ActiveServer(s)->Submit(
        StorageRequest::DpfEvalOf(key_bytes[s], /*dpf_offset=*/0));
  }
  // Wait on every ticket even after a failure (abandoned tickets leak).
  // A failed slot fails the query atomically and is swapped for a spare;
  // the caller's retry regenerates the DPF keys above, so the surviving
  // server never sees the same key twice (the hiding argument's demand).
  std::optional<Block> result;
  Status first_error = OkStatus();
  for (uint64_t s = 0; s < d; ++s) {
    StorageBackend* server = ActiveServer(s);
    StatusOr<StorageReply> subset = server->Wait(subset_tickets[s]);
    if (!subset.ok() && first_error.ok()) first_error = subset.status();
    StatusOr<StorageReply> share = server->Wait(eval_tickets[s]);
    if (!share.ok() || !subset.ok()) {
      if (!share.ok() && first_error.ok()) first_error = share.status();
      FailoverSlot(s, !share.ok() ? share.status() : subset.status());
      continue;
    }
    if (!result.has_value()) {
      result = ToBlock(share->blocks[0]);
    } else {
      kernels::XorAccumulate(result->data(), share->blocks[0].data(),
                             result->size());
    }
  }
  DPSTORE_RETURN_IF_ERROR(first_error);
  if (error_branch) return std::optional<Block>();
  DPSTORE_CHECK(result.has_value());
  return result;
}

TransportStats MultiServerDpIr::TransportTotals() const {
  TransportStats totals;
  for (const StorageBackend* s : servers_) totals += s->Stats();
  return totals;
}

}  // namespace dpstore
