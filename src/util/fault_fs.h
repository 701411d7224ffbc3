#ifndef FWDECAY_UTIL_FAULT_FS_H_
#define FWDECAY_UTIL_FAULT_FS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

// Fault-injectable file I/O — the single gateway for every byte the
// repo persists or reads back (packet traces, engine snapshots).
//
// All writes are write-to-temp + fsync + atomic-rename, so a crash at
// any instant leaves either the complete old file or the complete new
// file, never a mix. The injection policy lets tests force the failure
// modes a real deployment sees — short/torn writes, EIO on write or
// fsync, a process death just before (or just after) the rename — and
// verify that recovery always lands on a clean state. The on-disk
// residue of an injected fault is byte-for-byte what a real crash at
// that point would leave.
//
// scripts/analyze.py forbids fopen/fstream in library code outside this
// file, so the fault matrix provably covers all disk I/O.

namespace fwdecay {

/// The instant within an I/O sequence at which an injected fault fires.
enum class FaultPoint {
  kNone = 0,
  /// open(2) of the temp file fails (disk full / permissions).
  kOpenForWrite,
  /// The write stops after `byte_limit` bytes and the "process dies":
  /// a torn temp file remains, the target is untouched.
  kTornWrite,
  /// write(2) returns EIO after `byte_limit` bytes were written.
  kWriteError,
  /// fsync(2) fails: the data may or may not have reached the platter.
  kFsyncError,
  /// Process dies after a durable temp write but before the rename:
  /// the old target survives intact, a complete temp file remains.
  kCrashBeforeRename,
  /// Process dies just after the rename: the new file is in place but
  /// the writer never learned the write succeeded.
  kCrashAfterRename,
  /// open(2) of the file for reading fails.
  kOpenForRead,
  /// The read is truncated to `byte_limit` bytes.
  kShortRead,
  /// read(2) returns EIO mid-file.
  kReadError,
};

/// One armed fault. The fault fires on the next matching operation and
/// then disarms itself (one-shot), so a recovery path that retries is
/// exercised against a healthy filesystem — exactly the crash-restart
/// sequence the checkpoint tests model.
struct FaultPlan {
  FaultPoint point = FaultPoint::kNone;
  /// Byte offset for kTornWrite / kWriteError / kShortRead.
  std::size_t byte_limit = 0;
};

/// Process-wide fault-injecting filesystem facade. Thread-safe.
class FaultFs {
 public:
  /// The singleton every durable code path routes through.
  static FaultFs& Instance();

  /// Arms `plan` (one-shot; replaces any armed plan).
  void SetPlan(const FaultPlan& plan) FWDECAY_EXCLUDES(mu_);
  /// Disarms any pending fault.
  void ClearPlan() FWDECAY_EXCLUDES(mu_);
  /// Number of faults that have actually fired since process start.
  std::uint64_t faults_injected() const FWDECAY_EXCLUDES(mu_);

  /// Atomically replaces `path` with `size` bytes from `data`:
  /// write `path`.tmp, fsync it, rename over `path`, fsync the parent
  /// directory. Returns false (with *error) on real or injected
  /// failure; on failure the previous `path` content, if any, is intact
  /// unless the fault fired after the rename (kCrashAfterRename), in
  /// which case the new content is durably in place.
  bool AtomicWriteFile(const std::string& path, const std::uint8_t* data,
                       std::size_t size, std::string* error);
  bool AtomicWriteFile(const std::string& path,
                       const std::vector<std::uint8_t>& bytes,
                       std::string* error);

  /// Reads all of `path` (up to `max_bytes`, rejecting larger files so a
  /// hostile or corrupt path cannot demand unbounded memory) into *out.
  bool ReadFile(const std::string& path, std::vector<std::uint8_t>* out,
                std::string* error,
                std::size_t max_bytes = kDefaultMaxFileBytes);

  /// Appends `size` bytes to `path` (creating it first if absent) and
  /// fsyncs before returning — the write-ahead-journal primitive: once
  /// this returns true the bytes survive a crash at any later instant.
  /// Injectable faults: kOpenForWrite, kTornWrite (only `byte_limit`
  /// bytes land and the call fails, modelling a crash mid-append — the
  /// journal reader must treat the torn tail as end-of-log),
  /// kWriteError, kFsyncError.
  bool AppendFile(const std::string& path, const std::uint8_t* data,
                  std::size_t size, std::string* error);

  /// Removes `path`. Returns false (with *error) only on a real failure
  /// other than the file already being absent — retention GC treats
  /// "already gone" as success (a crashed predecessor may have removed
  /// it before dying).
  bool RemoveFile(const std::string& path, std::string* error);

  /// True when `path` exists (any file type). Never injects faults:
  /// existence probes drive recovery's journal-segment walk, and a
  /// spurious "absent" would silently truncate replay rather than
  /// surface an error.
  bool FileExists(const std::string& path) const;

  /// Creates `path` as a directory if it does not already exist (one
  /// level; parents must exist). Used by the server for its data dir.
  bool EnsureDir(const std::string& path, std::string* error);

  /// Removes `path` if it exists; best-effort (used for stale temp
  /// files left behind by a previous crash).
  void RemoveStaleTemp(const std::string& path);

  /// The temp-file name AtomicWriteFile uses for `path`.
  static std::string TempPathFor(const std::string& path);

  /// 1 GiB: far above any artifact the repo writes, far below "mmap the
  /// whole disk because a length field was hostile".
  static constexpr std::size_t kDefaultMaxFileBytes = std::size_t{1} << 30;

 private:
  FaultFs() = default;

  /// Consumes the armed plan if it matches `point`; returns the plan's
  /// byte_limit through *byte_limit when it fires.
  bool ConsumeFault(FaultPoint point, std::size_t* byte_limit)
      FWDECAY_EXCLUDES(mu_);

  mutable Mutex mu_;
  FaultPlan plan_ FWDECAY_GUARDED_BY(mu_);
  std::uint64_t faults_injected_ FWDECAY_GUARDED_BY(mu_) = 0;
};

/// RAII plan installer for tests: arms on construction, disarms on
/// destruction (even if the fault never fired).
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan) {
    FaultFs::Instance().SetPlan(plan);
  }
  ScopedFaultPlan(FaultPoint point, std::size_t byte_limit = 0)
      : ScopedFaultPlan(FaultPlan{point, byte_limit}) {}
  ~ScopedFaultPlan() { FaultFs::Instance().ClearPlan(); }

  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace fwdecay

#endif  // FWDECAY_UTIL_FAULT_FS_H_
