#ifndef CDES_RUNTIME_EVENT_LOG_H_
#define CDES_RUNTIME_EVENT_LOG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/event.h"
#include "runtime/messages.h"

namespace cdes {

/// An append-only log of event occurrences, in stamp order, optionally
/// compacted behind a checkpoint.
///
/// §5.1 invokes Gray's operation-id logging [7]: recording uniquely
/// identified events on persistent storage so that scheduler state can be
/// rebuilt after a failure. The distributed scheduler can be pointed at an
/// EventLog (GuardSchedulerOptions::durable_log); every occurrence is
/// appended before it is announced, and GuardScheduler::Recover replays a
/// log into a freshly built scheduler, reconstructing decided events,
/// per-actor knowledge, and reduced guards exactly. The multi-instance
/// engine (src/engine) keeps one log per workflow instance and routes each
/// log back to a fresh instance in Engine::Recover via the instance id
/// carried in the header.
///
/// The serialized form (v3) is a line-oriented text format standing in for
/// an on-disk WAL:
///
///   cdeslog v3 <instance>
///   ckpt <covered> <time> <seq> <nlines> <crc>   (checkpoint section, opt.)
///   <payload line> x nlines                      (opaque; runtime/checkpoint)
///   <seq> <time> <literal> <record-crc>          (one line per occurrence)
///   checksum <body-crc>                          (trailer, written at rest)
///
/// A checkpoint section snapshots everything the `covered` records from
/// genesis would reconstruct (see runtime/checkpoint.h for the payload
/// schema); once one is durable, the record prefix it covers can be
/// truncated and recovery replays only the suffix. The *last* intact
/// checkpoint wins: records preceding it in the file are the ones it
/// covers and are discarded on parse, so a file holding the prefix and the
/// checkpoint behind it parses to exactly the same state as the compacted
/// file.
///
/// Every record line carries its own FNV checksum, so a log cut off
/// mid-append (a crash between the write and the flush of the final line)
/// is still recoverable: `LoadTolerant` drops the one torn trailing record
/// (or a checkpoint section torn at end-of-file, which the preceding
/// not-yet-truncated records cover) instead of failing the whole recovery,
/// while the strict `Deserialize` continues to reject any damage anywhere.
class EventLog {
 public:
  struct Record {
    OccurrenceStamp stamp;
    EventLiteral literal;

    friend bool operator==(const Record&, const Record&) = default;
  };

  /// One serialized checkpoint: an opaque snapshot payload (schema in
  /// runtime/checkpoint.h) plus the portion of the log it covers.
  struct CheckpointSection {
    /// Records from genesis folded into the snapshot; suffix records in
    /// the log continue after them.
    uint64_t covered = 0;
    /// Stamp of the last covered record; suffix stamps must not precede it.
    OccurrenceStamp last_stamp;
    /// '\n'-separated payload lines, no trailing newline.
    std::string payload;

    friend bool operator==(const CheckpointSection&,
                           const CheckpointSection&) = default;
  };

  /// Appends one occurrence; stamps must be non-decreasing (CHECK —
  /// callers append stamps they just issued, so regression is a programmer
  /// error; untrusted *serialized* input is validated by Parse, which
  /// returns a Status instead).
  void Append(const Record& record);

  /// Replaces the record prefix with a checkpoint (in-memory compaction):
  /// `section.covered` must equal total_records(), i.e. the snapshot must
  /// cover everything currently in the log. Later appends start the suffix.
  void InstallCheckpoint(CheckpointSection section);

  /// Suffix records (everything after the checkpoint; the whole log when
  /// there is none).
  const std::vector<Record>& records() const { return records_; }
  bool empty() const { return records_.empty() && !checkpoint_; }
  size_t size() const { return records_.size(); }
  /// Records ever appended: checkpoint-covered plus the suffix.
  uint64_t total_records() const {
    return (checkpoint_ ? checkpoint_->covered : 0) + records_.size();
  }
  /// Stamp of the newest record (suffix, or the checkpoint's last covered
  /// record when the suffix is empty). Requires total_records() > 0.
  OccurrenceStamp last_stamp() const;

  const CheckpointSection* checkpoint() const {
    return checkpoint_ ? &*checkpoint_ : nullptr;
  }

  /// The workflow instance this log belongs to (0 for standalone
  /// schedulers). Serialized in the header; Engine::Recover uses it to
  /// route a log back to the instance it describes.
  uint64_t instance() const { return instance_; }
  void set_instance(uint64_t instance) { instance_ = instance; }

  /// Renders the sealed log: header, checkpoint section (when present),
  /// record lines, and the whole-body checksum trailer.
  std::string Serialize(const Alphabet& alphabet) const;
  /// Renders the live (still-appendable) image: like Serialize but without
  /// the trailer — the shape a crashed writer's WAL file has on disk.
  std::string SerializeOpen(const Alphabet& alphabet) const;

  // ---- Line builders (RecordLine is shared with the engine's group-commit
  // ---- WAL, so an appended file is byte-identical to SerializeOpen) ----
  static std::string HeaderLine(uint64_t instance);
  static std::string RecordLine(const Record& record, const Alphabet& alphabet);
  static std::string SectionText(const CheckpointSection& section);

  /// Strictly parses a serialized v3 log. Literal names must
  /// already be interned in `alphabet` (recovery re-parses the workflow
  /// spec first). Fails on format errors, unknown events, any checksum
  /// mismatch, decreasing stamps, or a missing/mismatching trailer.
  static Result<EventLog> Deserialize(const Alphabet& alphabet,
                                      std::string_view text);

  /// Reads just the instance id out of a serialized log's header, without
  /// needing an alphabet: Engine::Recover routes each log to its owning
  /// shard before any shard context exists. The header line must be
  /// newline-terminated — a header cut mid-write could otherwise parse
  /// with a truncated (wrong) instance id and route the log to the wrong
  /// instance.
  static Result<uint64_t> PeekInstance(std::string_view text);

  /// Crash-tolerant load: like Deserialize, but accepts the shapes a
  /// killed writer leaves behind — an absent trailer, a final record line
  /// torn mid-append, a trailer line itself torn mid-write (treated like
  /// an absent trailer), or a checkpoint section torn at end-of-file
  /// (dropped; the records before it were not yet truncated and carry the
  /// same state). `dropped_torn_tail`, when non-null, reports whether a
  /// possible *record* was discarded (a torn trailer or torn checkpoint
  /// sets it only when the torn line cannot be told apart from a record).
  /// Corruption anywhere other than the tail still fails: a torn middle
  /// would mean lying about the prefix.
  static Result<EventLog> LoadTolerant(const Alphabet& alphabet,
                                       std::string_view text,
                                       bool* dropped_torn_tail = nullptr);

 private:
  static Result<EventLog> Parse(const Alphabet& alphabet,
                                std::string_view text, bool tolerant,
                                bool* dropped_torn_tail);

  uint64_t instance_ = 0;
  std::optional<CheckpointSection> checkpoint_;
  std::vector<Record> records_;
};

}  // namespace cdes

#endif  // CDES_RUNTIME_EVENT_LOG_H_
