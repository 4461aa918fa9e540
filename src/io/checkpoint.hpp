// Versioned binary checkpoint files for solvers::SnapshotState.
//
// A checkpoint is the durable form of one epoch-fence snapshot: the model
// vector, the solver's named state sections (RNG words, SVRG anchors,
// SAG/SAGA gradient memory, adaptive-IS vectors), and the run header (solver
// name, completed epoch, seed, epoch budget, dataset fingerprint). The
// format is deliberately dumb — length-prefixed little-endian sections, each
// protected by a CRC32 — so a checkpoint written by any build loads in
// any other, and a partial write (kill mid-save) or a flipped byte is
// detected and reported instead of silently resuming from garbage.
//
// File layout, format version 2 (all integers little-endian):
//
//   bytes 0..3   magic "ISCK"
//   u32          format version (kCheckpointVersion)
//   u32          solver-name length, then the name bytes
//   u64 ×4       epoch, seed, epochs_budget, dataset_fingerprint
//   u32          section count
//   u32          CRC32 of everything from the name length through the count
//   per section:
//     u8         payload kind: 0 = f64 words, 1 = u64 words
//     u32        name length, then the name bytes
//     u64        element count
//     payload    count × 8 bytes
//     u32        CRC32 of everything from the kind byte through the payload
//   nothing      a byte past the last section is an error
//
// So a CRC covers every byte after the version, and no length sizes
// anything before it is bounded by the bytes left in the file. Version 1
// files still load: their section count sits after the header CRC, each
// section CRC covers only its name and payload, and trailing bytes are
// ignored.
//
// The model vector travels as an f64 section named "__model"; solver
// sections keep their SnapshotState names ("rng", "svrg.anchor", ...).
//
// Durability: save_checkpoint writes to `path + ".tmp"` and renames over
// `path`, so a reader never observes a half-written file at the final path —
// the worst a crash leaves behind is a stale .tmp next to a complete
// previous checkpoint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "solvers/snapshot.hpp"

namespace isasgd::io {

/// Raised on any checkpoint load/save failure: missing or unopenable file,
/// bad magic, unsupported version, truncation, CRC mismatch. The message
/// names the file and the failing part.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kCheckpointVersion = 2;
inline constexpr char kCheckpointMagic[4] = {'I', 'S', 'C', 'K'};

/// Serialises `state` to `path` atomically (tmp + rename). Throws
/// CheckpointError when the file cannot be written.
void save_checkpoint(const std::string& path,
                     const solvers::SnapshotState& state);

/// Loads and fully validates a checkpoint of version 1 or 2: magic,
/// version, every length, every CRC. Throws CheckpointError on any defect.
[[nodiscard]] solvers::SnapshotState load_checkpoint(const std::string& path);

}  // namespace isasgd::io
