#include "engine/wal.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"

namespace cdes::engine {
namespace {

/// Lines in `text`: each is one durable record for group-commit accounting.
size_t Lines(const std::string& text) {
  return static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
}

Status WriteWhole(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal(StrCat("cannot open '", path, "' for writing"));
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  int closed = std::fclose(f);
  if (written != content.size() || closed != 0) {
    return Status::Internal(StrCat("short write to '", path, "'"));
  }
  return Status::OK();
}

}  // namespace

ShardWal::ShardWal(const WalOptions& options) : options_(options) {
  CDES_CHECK(!options_.dir.empty()) << "ShardWal needs a directory";
  CDES_CHECK(options_.group_commit_records > 0);
}

std::string ShardWal::PathFor(uint64_t id) const {
  return StrCat(options_.dir, "/", id, ".log");
}

Status ShardWal::Create(uint64_t id, const std::string& content) {
  // tmp + rename: the visible file is always a complete image. A crash
  // before the rename leaves the old file intact; after it, the new one.
  Discard(id);
  std::string path = PathFor(id);
  std::string tmp = StrCat(path, ".tmp");
  Status s = WriteWhole(tmp, content);
  if (!s.ok()) return s;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal(StrCat("cannot rename '", tmp, "'"));
  }
  return Status::OK();
}

void ShardWal::Append(uint64_t id, const std::string& text) {
  buffers_[id] += text;
  pending_appends_ += Lines(text);  // lines, not calls
}

Status ShardWal::Flush(uint64_t id, const std::string& text) {
  std::FILE* f = std::fopen(PathFor(id).c_str(), "ab");
  if (f == nullptr) {
    return Status::Internal(
        StrCat("cannot open '", PathFor(id), "' for append"));
  }
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  int closed = std::fclose(f);
  if (written != text.size() || closed != 0) {
    return Status::Internal(StrCat("short append to '", PathFor(id), "'"));
  }
  return Status::OK();
}

Status ShardWal::FlushAll(std::vector<uint64_t>* failed) {
  Status first;
  for (auto it = buffers_.begin(); it != buffers_.end();) {
    Status s = it->second.empty() ? Status::OK() : Flush(it->first, it->second);
    if (s.ok()) {
      // Conservative: a partially flushed buffer would double lines on
      // retry, so the count drops only after the whole buffer landed.
      pending_appends_ -= Lines(it->second);
      it = buffers_.erase(it);
      continue;
    }
    if (failed != nullptr) failed->push_back(it->first);
    if (first.ok()) first = std::move(s);
    ++it;
  }
  return first;
}

void ShardWal::Discard(uint64_t id) {
  auto it = buffers_.find(id);
  if (it == buffers_.end()) return;
  pending_appends_ -= Lines(it->second);
  buffers_.erase(it);
}

Status ShardWal::Remove(uint64_t id) {
  Discard(id);
  std::error_code ec;
  std::filesystem::remove(PathFor(id), ec);  // false, no error: absent
  if (ec) {
    return Status::Internal(
        StrCat("cannot remove '", PathFor(id), "': ", ec.message()));
  }
  return Status::OK();
}

}  // namespace cdes::engine
