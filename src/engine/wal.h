#ifndef CDES_ENGINE_WAL_H_
#define CDES_ENGINE_WAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace cdes::engine {

struct WalOptions {
  /// Directory holding one `<instance-id>.log` file per in-flight instance.
  std::string dir;
  /// Group commit: buffered appends (across all resident instances of the
  /// shard) are written out once this many have accumulated, or at a
  /// barrier (shard idle/stop) — whichever comes first. 1 = write through
  /// on every append.
  size_t group_commit_records = 1;
};

/// The durable face of one shard: per-instance write-ahead log files with
/// group commit. Appends buffer in memory across all resident instances
/// and reach the filesystem in batches, so durability is no longer one
/// write per occurrence; the trade is the WAL's whole crash story — a kill
/// between flushes loses exactly the buffered tail of each file, which the
/// v3 log format absorbs (EventLog::LoadTolerant drops a torn final line;
/// fully flushed lines carry their own checksums).
///
/// A file only ever grows by records: an instance logs each event at most
/// once (Definition 1), so its file is bounded by the alphabet and is never
/// compacted. Writing discipline:
///  - Create produces a complete file via tmp + atomic rename, so a file is
///    never half-initialized — rename(2) either happened or it did not.
///  - Append + FlushAll add complete lines at the end of an existing file
///    (open-append-close; no descriptors held across calls), so a crash
///    tears at most the final line.
///
/// Worker-thread-confined, like everything else a shard owns; one ShardWal
/// serves all residents of its shard.
class ShardWal {
 public:
  explicit ShardWal(const WalOptions& options);

  ShardWal(const ShardWal&) = delete;
  ShardWal& operator=(const ShardWal&) = delete;

  /// `<dir>/<id>.log`.
  std::string PathFor(uint64_t id) const;

  /// Atomically creates (or replaces) the instance's file with `content`,
  /// discarding any buffered appends for it.
  Status Create(uint64_t id, const std::string& content);

  /// Buffers `text` (one or more complete lines) for the instance's file.
  void Append(uint64_t id, const std::string& text);

  /// Whether the group-commit policy calls for a flush now.
  bool ShouldFlush() const { return pending_appends_ >= options_.group_commit_records; }

  /// Writes every instance's buffered appends out (group commit /
  /// barrier). A failing instance does not stop the others: every buffer
  /// is attempted, the ids whose flush failed are appended to `*failed`
  /// (when non-null), and the first failure is returned. A failed buffer
  /// is kept, so a later flush retries it whole.
  Status FlushAll(std::vector<uint64_t>* failed = nullptr);

  /// Drops the instance's file and buffers (instance completed; its sealed
  /// log lives in the InstanceResult). An absent file is not an error.
  Status Remove(uint64_t id);

  /// Buffered appends not yet on disk (across all instances).
  size_t pending_appends() const { return pending_appends_; }

 private:
  /// Writes one buffer to the end of its instance's file.
  Status Flush(uint64_t id, const std::string& text);
  /// Forgets the instance's buffered appends.
  void Discard(uint64_t id);

  const WalOptions options_;
  /// instance id → concatenated buffered append text.
  std::map<uint64_t, std::string> buffers_;
  size_t pending_appends_ = 0;
};

}  // namespace cdes::engine

#endif  // CDES_ENGINE_WAL_H_
