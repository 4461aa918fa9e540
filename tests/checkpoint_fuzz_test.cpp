// Seeded mutation fuzzing of the checkpoint reader, in the style of
// shardpack_fuzz_test: two small checkpoints (one with f64 and u64 sections,
// one with a long solver name and empty sections) get bytes flipped,
// truncated, duplicated, appended or spliced in from the other, and u32/u64
// fields set to extremes. Each result is loaded with io::load_checkpoint.
// The contract: every input ends in io::CheckpointError or in a state equal
// to its source — a CRC covers every byte after the version and trailing
// bytes are an error, so no mutation may change what loads — never a crash
// or another exception type, and a load that succeeds holds no more state
// than the file has bytes. Half the inputs are then resealed — every CRC
// recomputed over the mutated bytes' own geometry, as a crafted file would
// carry — so the checks behind the CRCs are fuzzed too: those inputs may
// load a different state, but the load throws nothing else. No external
// fuzzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "io/checkpoint.hpp"
#include "io/crc32.hpp"
#include "solvers/snapshot.hpp"
#include "util/rng.hpp"

namespace isasgd {
namespace {

using Bytes = std::vector<char>;

solvers::SnapshotState full_state() {
  solvers::SnapshotState s;
  s.solver = "IS-SGD";
  s.epoch = 3;
  s.seed = 42;
  s.epochs_budget = 6;
  s.dataset_fingerprint = 0xfeedfacecafebeefULL;
  s.model = {1.5, -2.25, 0.0, 3.0e-7, -0.0};
  s.reals["svrg.anchor"] = {0.5, 0.25};
  s.words["rng"] = {1, 2, 3, ~std::uint64_t{0}};
  return s;
}

solvers::SnapshotState sparse_state() {
  solvers::SnapshotState s;
  s.solver = std::string(40, 'S');
  s.epoch = 1;
  s.reals["a.section.with.no.values"] = {};
  s.words["w"] = {7};
  return s;
}

Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint32_t get_u32(const Bytes& b, std::size_t at) {
  std::uint32_t v;
  std::memcpy(&v, b.data() + at, 4);
  return v;
}

std::uint64_t get_u64(const Bytes& b, std::size_t at) {
  std::uint64_t v;
  std::memcpy(&v, b.data() + at, 8);
  return v;
}

/// One checkpoint's bytes and the offsets of its integer fields.
struct Checkpoint {
  Bytes bytes;
  std::vector<std::size_t> u32_fields;
  std::vector<std::size_t> u64_fields;
};

/// Saves `state` and records where its fields are (io/checkpoint.hpp's
/// layout): the version, every length, count and CRC, and the four u64
/// header fields.
Checkpoint make_checkpoint(const solvers::SnapshotState& state,
                           const std::string& path) {
  io::save_checkpoint(path, state);
  Checkpoint c;
  c.bytes = slurp(path);
  c.u32_fields = {4, 8};  // version, solver-name length
  std::size_t at = 12 + state.solver.size();
  for (int i = 0; i < 4; ++i, at += 8) c.u64_fields.push_back(at);
  c.u32_fields.push_back(at);      // section count
  c.u32_fields.push_back(at + 4);  // header CRC
  at += 8;
  while (at < c.bytes.size()) {
    const std::size_t name_len = get_u32(c.bytes, at + 1);
    c.u32_fields.push_back(at + 1);
    at += 5 + name_len;
    const std::size_t count = get_u64(c.bytes, at);
    c.u64_fields.push_back(at);
    at += 8 + 8 * count;
    c.u32_fields.push_back(at);  // section CRC
    at += 4;
  }
  return c;
}

void mutate(util::Rng& rng, const Checkpoint& ckpt, Bytes& b,
            const Bytes& other) {
  const std::size_t at = util::uniform_index(rng, b.size());
  switch (util::uniform_index(rng, 6)) {
    case 0:  // flip bits of one byte
      b[at] = static_cast<char>(b[at] ^ (1 + util::uniform_index(rng, 255)));
      break;
    case 1:  // truncate
      b.resize(at);
      break;
    case 2: {  // duplicate a range in place
      const std::size_t len = std::min<std::size_t>(
          1 + util::uniform_index(rng, 32), b.size() - at);
      const Bytes range(b.begin() + static_cast<long>(at),
                        b.begin() + static_cast<long>(at + len));
      b.insert(b.begin() + static_cast<long>(at), range.begin(), range.end());
      break;
    }
    case 3: {  // splice in a range of the other checkpoint
      const std::size_t from = util::uniform_index(rng, other.size());
      const std::size_t len = std::min<std::size_t>(
          1 + util::uniform_index(rng, 64), other.size() - from);
      b.insert(b.begin() + static_cast<long>(at),
               other.begin() + static_cast<long>(from),
               other.begin() + static_cast<long>(from + len));
      break;
    }
    case 4: {  // extend past the last section
      const std::size_t len = 1 + util::uniform_index(rng, 16);
      for (std::size_t i = 0; i < len; ++i) {
        b.push_back(static_cast<char>(util::uniform_index(rng, 256)));
      }
      break;
    }
    default: {  // set an integer field to an extreme
      const bool wide = util::uniform_index(rng, 2) == 0;
      const std::vector<std::size_t>& fields =
          wide ? ckpt.u64_fields : ckpt.u32_fields;
      const std::size_t field = fields[util::uniform_index(rng, fields.size())];
      const std::uint64_t n = b.size();
      const std::uint64_t extremes[] = {
          0, 1, 2, 7, 8, n / 8, n - 8, n, n + 8, std::uint64_t{1} << 31,
          (std::uint64_t{1} << 32) - 1, std::uint64_t{1} << 61,
          std::uint64_t{1} << 63, ~std::uint64_t{0}, ~std::uint64_t{0} - 7};
      const std::uint64_t v =
          extremes[util::uniform_index(rng, std::size(extremes))];
      const std::size_t width = wide ? 8 : 4;
      if (field + width <= b.size()) std::memcpy(b.data() + field, &v, width);
      break;
    }
  }
}

/// Recomputes every CRC the mutated bytes' own geometry declares, where it
/// fits in the file, as a crafted checkpoint would carry them.
void reseal(Bytes& b) {
  const auto seal = [&](std::size_t begin, std::size_t end) {
    const std::uint32_t crc = io::crc32(b.data() + begin, end - begin);
    std::memcpy(b.data() + end, &crc, 4);
  };
  if (b.size() < 12) return;
  std::size_t at = 12 + std::size_t{get_u32(b, 8)} + 32;  // the section count
  if (at + 8 > b.size()) return;
  const std::uint32_t sections = get_u32(b, at);
  seal(8, at + 4);
  at += 8;
  for (std::uint32_t k = 0; k < sections && at + 5 <= b.size(); ++k) {
    const std::size_t mark = at;
    at += 5 + std::size_t{get_u32(b, at + 1)};
    if (at + 8 > b.size()) return;
    const std::uint64_t count = get_u64(b, at);
    if (count > b.size() / 8) return;
    at += 8 + 8 * count;
    if (at + 4 > b.size()) return;
    seal(mark, at);
    at += 4;
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), 8 * a.size()) == 0);
}

bool equal(const solvers::SnapshotState& a, const solvers::SnapshotState& b) {
  if (a.solver != b.solver || a.epoch != b.epoch || a.seed != b.seed ||
      a.epochs_budget != b.epochs_budget ||
      a.dataset_fingerprint != b.dataset_fingerprint ||
      !same_bits(a.model, b.model) || a.words != b.words ||
      a.reals.size() != b.reals.size()) {
    return false;
  }
  for (const auto& [name, values] : a.reals) {
    const auto it = b.reals.find(name);
    if (it == b.reals.end() || !same_bits(values, it->second)) return false;
  }
  return true;
}

enum class Outcome { kError, kSource, kOther };

Outcome run(const std::string& path, const solvers::SnapshotState& source) {
  const std::size_t file_bytes = slurp(path).size();
  try {
    const solvers::SnapshotState s = io::load_checkpoint(path);
    // Nothing the load sized can be larger than the file that sized it.
    std::size_t held = s.solver.size() + 8 * s.model.size();
    for (const auto& [name, values] : s.reals) {
      held += name.size() + 8 * values.size();
    }
    for (const auto& [name, values] : s.words) {
      held += name.size() + 8 * values.size();
    }
    EXPECT_LE(held, file_bytes);
    return equal(s, source) ? Outcome::kSource : Outcome::kOther;
  } catch (const io::CheckpointError&) {
    return Outcome::kError;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped error: " << e.what();
    return Outcome::kError;
  }
}

TEST(CheckpointFuzz, MutatedCheckpointsFailTypedOrLoadExactly) {
  const std::string path = ::testing::TempDir() + "fuzz.ckpt";
  const solvers::SnapshotState states[2] = {full_state(), sparse_state()};
  const Checkpoint ckpts[2] = {make_checkpoint(states[0], path),
                               make_checkpoint(states[1], path)};
  for (int i = 0; i < 2; ++i) {
    spit(path, ckpts[i].bytes);
    ASSERT_EQ(run(path, states[i]), Outcome::kSource);
  }

  util::Rng rng(20261020);
  std::size_t tally[2][3] = {};  // [resealed][outcome]
  for (int trial = 0; trial < 4000; ++trial) {
    const int which = trial % 2;
    Bytes bytes = ckpts[which].bytes;
    const std::size_t edits = 1 + util::uniform_index(rng, 3);
    for (std::size_t e = 0; e < edits && !bytes.empty(); ++e) {
      mutate(rng, ckpts[which], bytes, ckpts[1 - which].bytes);
    }
    const bool resealed = util::uniform_index(rng, 2) == 0;
    if (resealed) reseal(bytes);
    spit(path, bytes);
    const Outcome outcome = run(path, states[which]);
    ++tally[resealed][static_cast<int>(outcome)];
    if (!resealed) {
      // Every byte is CRC-guarded: a typed error or the source itself.
      EXPECT_NE(outcome, Outcome::kOther) << "trial " << trial;
    }
    if (::testing::Test::HasFailure()) {
      spit(::testing::TempDir() + "fuzz-failing.ckpt", bytes);
      FAIL() << "trial " << trial << " failed; input kept as fuzz-failing.ckpt";
    }
  }
  std::remove(path.c_str());
  // Every outcome must have been reached.
  EXPECT_GT(tally[0][static_cast<int>(Outcome::kError)], 1500u);
  EXPECT_GT(tally[1][static_cast<int>(Outcome::kError)], 500u);
  EXPECT_GT(tally[1][static_cast<int>(Outcome::kSource)], 10u);
  EXPECT_GT(tally[1][static_cast<int>(Outcome::kOther)], 50u);
  std::printf("unsealed: %zu errors, %zu exact; resealed: %zu errors, "
              "%zu exact, %zu other\n",
              tally[0][0], tally[0][1], tally[1][0], tally[1][1], tally[1][2]);
}

}  // namespace
}  // namespace isasgd
