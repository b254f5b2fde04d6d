#ifndef CDES_ALGEBRA_EVENT_H_
#define CDES_ALGEBRA_EVENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace cdes {

/// Index of an event symbol in an Alphabet. The paper's Σ is a set of
/// significant event symbols; we intern their names and refer to them by id.
using SymbolId = uint32_t;

inline constexpr SymbolId kInvalidSymbol = 0xFFFFFFFFu;

/// A literal of the alphabet Γ: an event symbol e or its complement ē.
///
/// The paper introduces, for each event symbol e, a complement symbol ē
/// denoting "e will never occur" (Definition 1 forbids both on one trace).
/// A literal packs (symbol, polarity) into one word so literals are cheap to
/// copy, compare, and hash.
class EventLiteral {
 public:
  /// Constructs an invalid literal; useful as a sentinel.
  EventLiteral() : code_(0xFFFFFFFFu) {}

  EventLiteral(SymbolId symbol, bool complemented)
      : code_((symbol << 1) | (complemented ? 1u : 0u)) {
    CDES_DCHECK(symbol < (1u << 30));
  }

  /// The positive literal e.
  static EventLiteral Positive(SymbolId symbol) {
    return EventLiteral(symbol, false);
  }
  /// The complement literal ē.
  static EventLiteral Complement(SymbolId symbol) {
    return EventLiteral(symbol, true);
  }

  bool valid() const { return code_ != 0xFFFFFFFFu; }
  SymbolId symbol() const { return code_ >> 1; }
  bool complemented() const { return (code_ & 1u) != 0; }

  /// ē for e, and e for ē. The paper identifies ē̄ with e.
  EventLiteral Complemented() const {
    EventLiteral out;
    out.code_ = code_ ^ 1u;
    return out;
  }

  /// Dense non-negative index usable as an array key (2*symbol + polarity).
  uint32_t index() const { return code_; }

  friend bool operator==(EventLiteral a, EventLiteral b) {
    return a.code_ == b.code_;
  }
  friend bool operator!=(EventLiteral a, EventLiteral b) {
    return a.code_ != b.code_;
  }
  friend bool operator<(EventLiteral a, EventLiteral b) {
    return a.code_ < b.code_;
  }

 private:
  uint32_t code_;
};

struct EventLiteralHash {
  size_t operator()(EventLiteral l) const {
    return std::hash<uint32_t>()(l.index());
  }
};

/// Interning table for event symbol names (the paper's Σ). Symbols are
/// compared by id; names are kept for printing and parsing.
///
/// An Alphabet is append-only: symbols are never removed, so SymbolIds stay
/// valid for the Alphabet's lifetime.
class Alphabet {
 public:
  Alphabet() = default;

  // Alphabets are identity objects shared by expressions and schedulers.
  Alphabet(const Alphabet&) = delete;
  Alphabet& operator=(const Alphabet&) = delete;

  /// Returns the id for `name`, interning it if new. Names must be non-empty
  /// and must not start with '~' (reserved for complement notation).
  SymbolId Intern(std::string_view name);

  /// Returns the id for `name` or kInvalidSymbol when unknown.
  SymbolId Find(std::string_view name) const;

  /// Name of an interned symbol.
  const std::string& Name(SymbolId id) const {
    CDES_CHECK_LT(id, names_.size());
    return names_[id];
  }

  /// Number of interned symbols.
  size_t size() const { return names_.size(); }

  /// Printable form of a literal: "e" or "~e".
  std::string LiteralName(EventLiteral lit) const;
  /// Appends LiteralName(lit) to `*out`.
  void AppendLiteralName(EventLiteral lit, std::string* out) const;

  /// Parses "e" or "~e" into a literal, interning the symbol if new.
  EventLiteral InternLiteral(std::string_view text);

  /// Parses "e" or "~e"; fails (NotFound) if the symbol is not interned.
  Result<EventLiteral> ParseLiteral(std::string_view text) const;

  /// All positive literals of interned symbols, in id order.
  std::vector<EventLiteral> PositiveLiterals() const;

  /// All literals (e and ē for every symbol), in index order.
  std::vector<EventLiteral> AllLiterals() const;

 private:
  // Heterogeneous lookup: Find/Intern probe with a string_view directly,
  // with no per-call std::string temporary — ParseLiteral sits on the log
  // replay and checkpoint-restore hot paths.
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, SymbolId, TransparentHash, std::equal_to<>>
      index_;
};

}  // namespace cdes

#endif  // CDES_ALGEBRA_EVENT_H_
