#include "tensor/io.h"

#include <cstdint>
#include <fstream>

namespace itask::io {

namespace {

constexpr uint32_t kMagic = 0x4954534Bu;  // "ITSK"
constexpr uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ofstream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw std::runtime_error("itask::io: truncated file");
  return value;
}

}  // namespace

void save_state_dict(const StateDict& state, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("itask::io: cannot open " + path);
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<uint64_t>(state.size()));
  for (const auto& [name, tensor] : state) {
    write_pod(os, static_cast<uint64_t>(name.size()));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_pod(os, static_cast<uint64_t>(tensor.ndim()));
    for (int64_t d = 0; d < tensor.ndim(); ++d)
      write_pod(os, static_cast<int64_t>(tensor.dim(d)));
    os.write(reinterpret_cast<const char*>(tensor.data().data()),
             static_cast<std::streamsize>(tensor.numel() * sizeof(float)));
  }
  if (!os) throw std::runtime_error("itask::io: write failure to " + path);
}

StateDict load_state_dict(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw std::runtime_error("itask::io: cannot open " + path);
  // Every length field is bounded by the bytes left in the file before it
  // sizes an allocation, so a corrupt header cannot ask for more memory than
  // the file holds.
  const auto reject = [&](const std::string& why) {
    throw std::runtime_error("itask::io: " + why + " in " + path);
  };
  const int64_t file_size = is.tellg();
  if (file_size < 0) reject("cannot size file");
  is.seekg(0);
  const auto bytes_left = [&] {
    return static_cast<uint64_t>(file_size - is.tellg());
  };
  if (read_pod<uint32_t>(is) != kMagic) reject("bad magic");
  if (read_pod<uint32_t>(is) != kVersion) reject("unsupported version");
  const uint64_t count = read_pod<uint64_t>(is);
  StateDict state;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t name_len = read_pod<uint64_t>(is);
    if (name_len > bytes_left()) reject("name length past end of file");
    std::string name(name_len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(name_len));
    const uint64_t rank = read_pod<uint64_t>(is);
    if (rank > static_cast<uint64_t>(Shape::kMaxRank))
      reject("rank above kMaxRank");
    Shape shape;
    int64_t numel = 1;
    for (uint64_t d = 0; d < rank; ++d) {
      const int64_t dim = read_pod<int64_t>(is);
      if (dim < 0) reject("negative dimension");
      if (__builtin_mul_overflow(numel, dim, &numel))
        reject("element count overflows");
      shape.push_back(dim);
    }
    if (static_cast<uint64_t>(numel) > bytes_left() / sizeof(float))
      reject("tensor payload past end of file");
    Tensor tensor(shape);
    is.read(reinterpret_cast<char*>(tensor.data().data()),
            static_cast<std::streamsize>(tensor.numel() * sizeof(float)));
    if (!is) reject("truncated tensor payload");
    if (!state.emplace(std::move(name), std::move(tensor)).second)
      reject("duplicate tensor name");
  }
  return state;
}

}  // namespace itask::io
