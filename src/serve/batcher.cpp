#include "serve/batcher.hpp"

#include "util/error.hpp"

namespace pdslin::serve {

const char* to_string(ServeStatus s) {
  switch (s) {
    case ServeStatus::Ok: return "ok";
    case ServeStatus::Degraded: return "degraded";
    case ServeStatus::Timeout: return "timeout";
    case ServeStatus::Rejected: return "rejected";
    case ServeStatus::Failed: return "failed";
  }
  return "unknown";
}

Batch take_batch(std::deque<PendingRequest>& queue, const BatcherConfig& cfg) {
  PDSLIN_CHECK_MSG(!queue.empty(), "take_batch on an empty queue");
  Batch batch;
  batch.key = queue.front().key;
  index_t width = queue.front().req.nrhs;
  batch.requests.push_back(std::move(queue.front()));
  queue.pop_front();
  // Every key-matching request joins while the width budget holds;
  // non-matching requests keep their relative order.
  for (auto it = queue.begin(); it != queue.end();) {
    if (it->key == batch.key && width + it->req.nrhs <= cfg.max_batch_nrhs) {
      width += it->req.nrhs;
      batch.requests.push_back(std::move(*it));
      it = queue.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

}  // namespace pdslin::serve
