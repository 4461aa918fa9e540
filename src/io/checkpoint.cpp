#include "io/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "io/crc32.hpp"

namespace isasgd::io {

namespace {

/// Incremental writer: buffers the whole file, tracks a CRC over explicit
/// spans, and flushes once — a crash can only ever lose the .tmp.
class Writer {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::byte*>(data);
    buffer_.insert(buffer_.end(), p, p + size);
  }
  void u8(std::uint8_t v) { bytes(&v, 1); }
  void u32(std::uint32_t v) { bytes(&v, 4); }
  void u64(std::uint64_t v) { bytes(&v, 8); }

  /// Bytes written since `mark`, as one span (for trailing CRCs).
  [[nodiscard]] std::uint32_t crc_since(std::size_t mark) const {
    return crc32(buffer_.data() + mark, buffer_.size() - mark);
  }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

  void flush(const std::string& path) {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) {
        throw CheckpointError("checkpoint save: cannot open '" + tmp +
                              "' for writing");
      }
      out.write(reinterpret_cast<const char*>(buffer_.data()),
                static_cast<std::streamsize>(buffer_.size()));
      out.flush();
      if (!out) {
        throw CheckpointError("checkpoint save: short write to '" + tmp +
                              "'");
      }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      throw CheckpointError("checkpoint save: rename '" + tmp + "' -> '" +
                            path + "' failed: " + ec.message());
    }
  }

 private:
  std::vector<std::byte> buffer_;
};

/// Bounds-checked reader over the whole file image.
class Reader {
 public:
  Reader(std::vector<std::byte> data, std::string path)
      : data_(std::move(data)), path_(std::move(path)) {}

  /// Throws unless `size` bytes are left: every length is bounded by the
  /// file before anything is sized by it.
  void need(std::size_t size, const char* what) const {
    if (size > data_.size() - pos_) {
      throw CheckpointError("checkpoint '" + path_ +
                            "': truncated while reading " + what);
    }
  }
  void bytes(void* out, std::size_t size, const char* what) {
    need(size, what);
    if (size == 0) return;  // an empty section's vector may hold no buffer
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
  }
  std::uint8_t u8(const char* what) {
    std::uint8_t v;
    bytes(&v, 1, what);
    return v;
  }
  std::uint32_t u32(const char* what) {
    std::uint32_t v;
    bytes(&v, 4, what);
    return v;
  }
  std::uint64_t u64(const char* what) {
    std::uint64_t v;
    bytes(&v, 8, what);
    return v;
  }
  std::string string(std::size_t size, const char* what) {
    need(size, what);
    std::string s(size, '\0');
    bytes(s.data(), size, what);
    return s;
  }
  [[nodiscard]] std::uint32_t crc_since(std::size_t mark) const {
    return crc32(data_.data() + mark, pos_ - mark);
  }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::vector<std::byte> data_;
  std::string path_;
  std::size_t pos_ = 0;
};

constexpr std::uint8_t kKindReals = 0;
constexpr std::uint8_t kKindWords = 1;
constexpr const char* kModelSection = "__model";

void write_section(Writer& out, std::uint8_t kind, const std::string& name,
                   const void* payload, std::size_t count) {
  const std::size_t mark = out.size();
  out.u8(kind);
  out.u32(static_cast<std::uint32_t>(name.size()));
  out.bytes(name.data(), name.size());
  out.u64(count);
  out.bytes(payload, count * 8);
  out.u32(out.crc_since(mark));
}

}  // namespace

void save_checkpoint(const std::string& path,
                     const solvers::SnapshotState& state) {
  Writer out;
  out.bytes(kCheckpointMagic, 4);
  out.u32(kCheckpointVersion);

  const std::size_t header_mark = out.size();
  out.u32(static_cast<std::uint32_t>(state.solver.size()));
  out.bytes(state.solver.data(), state.solver.size());
  out.u64(state.epoch);
  out.u64(state.seed);
  out.u64(state.epochs_budget);
  out.u64(state.dataset_fingerprint);
  out.u32(static_cast<std::uint32_t>(1 + state.reals.size() +
                                     state.words.size()));
  out.u32(out.crc_since(header_mark));

  write_section(out, kKindReals, kModelSection, state.model.data(),
                state.model.size());
  for (const auto& [name, values] : state.reals) {
    write_section(out, kKindReals, name, values.data(), values.size());
  }
  for (const auto& [name, values] : state.words) {
    write_section(out, kKindWords, name, values.data(), values.size());
  }
  out.flush(path);
}

solvers::SnapshotState load_checkpoint(const std::string& path) {
  std::vector<std::byte> image;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
      throw CheckpointError("checkpoint '" + path +
                            "': cannot open for reading");
    }
    const std::streamsize size = in.tellg();
    in.seekg(0);
    image.resize(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char*>(image.data()), size);
    if (!in) {
      throw CheckpointError("checkpoint '" + path + "': read failed");
    }
  }
  Reader in(std::move(image), path);

  char magic[4];
  in.bytes(magic, 4, "magic");
  if (std::memcmp(magic, kCheckpointMagic, 4) != 0) {
    throw CheckpointError("checkpoint '" + path +
                          "': bad magic (not an ISCK checkpoint file)");
  }
  const std::uint32_t version = in.u32("version");
  if (version != 1 && version != kCheckpointVersion) {
    throw CheckpointError(
        "checkpoint '" + path + "': unsupported format version " +
        std::to_string(version) + " (this build reads versions 1 to " +
        std::to_string(kCheckpointVersion) + ")");
  }
  // Version 1 leaves the section count, each section's kind byte and name
  // length, and any trailing bytes outside every CRC.
  const bool v1 = version == 1;

  solvers::SnapshotState state;
  const std::size_t header_mark = in.pos();
  const std::uint32_t name_len = in.u32("solver-name length");
  state.solver = in.string(name_len, "solver name");
  state.epoch = in.u64("epoch");
  state.seed = in.u64("seed");
  state.epochs_budget = in.u64("epoch budget");
  state.dataset_fingerprint = in.u64("dataset fingerprint");
  std::uint32_t sections = v1 ? 0 : in.u32("section count");
  const std::uint32_t header_crc = in.crc_since(header_mark);
  if (in.u32("header CRC") != header_crc) {
    throw CheckpointError("checkpoint '" + path +
                          "': header CRC mismatch (corrupted file)");
  }
  if (v1) sections = in.u32("section count");

  for (std::uint32_t k = 0; k < sections; ++k) {
    const std::size_t kind_mark = in.pos();
    const std::uint8_t kind = in.u8("section kind");
    if (kind != kKindReals && kind != kKindWords) {
      throw CheckpointError("checkpoint '" + path +
                            "': unknown section kind " + std::to_string(kind));
    }
    const std::uint32_t section_name_len = in.u32("section-name length");
    const std::size_t mark = v1 ? in.pos() : kind_mark;
    const std::string name = in.string(section_name_len, "section name");
    const std::uint64_t count = in.u64("section element count");
    // Validate the declared length against the bytes actually present, so a
    // corrupted count reads as truncation instead of a giant allocation.
    if (count > in.remaining() / 8) {
      throw CheckpointError("checkpoint '" + path + "': truncated section '" +
                            name + "' (declares " + std::to_string(count) +
                            " elements past end of file)");
    }
    if (kind == kKindReals) {
      std::vector<double> values(count);
      in.bytes(values.data(), count * 8, ("section '" + name + "'").c_str());
      const std::uint32_t crc = in.crc_since(mark);
      if (in.u32("section CRC") != crc) {
        throw CheckpointError("checkpoint '" + path + "': CRC mismatch in "
                              "section '" + name + "' (corrupted file)");
      }
      if (name == kModelSection) {
        state.model = std::move(values);
      } else {
        state.reals[name] = std::move(values);
      }
    } else {
      std::vector<std::uint64_t> values(count);
      in.bytes(values.data(), count * 8, ("section '" + name + "'").c_str());
      const std::uint32_t crc = in.crc_since(mark);
      if (in.u32("section CRC") != crc) {
        throw CheckpointError("checkpoint '" + path + "': CRC mismatch in "
                              "section '" + name + "' (corrupted file)");
      }
      state.words[name] = std::move(values);
    }
  }
  if (!v1 && in.remaining() != 0) {
    throw CheckpointError("checkpoint '" + path + "': " +
                          std::to_string(in.remaining()) +
                          " trailing bytes after the last section");
  }
  return state;
}

}  // namespace isasgd::io
