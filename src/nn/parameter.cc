#include "nn/parameter.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include "util/logging.h"

namespace ncl::nn {

namespace {
constexpr uint32_t kMagic = 0x4e434c50;  // "NCLP"
constexpr uint32_t kVersion = 1;
}  // namespace

Parameter* ParameterStore::Create(std::string_view name, size_t rows, size_t cols,
                                  Init init, Rng& rng) {
  std::string key(name);
  NCL_CHECK(!index_.contains(key)) << "duplicate parameter name '" << key << "'";
  auto param = std::make_unique<Parameter>();
  param->name = key;
  switch (init) {
    case Init::kZero:
      param->value = Matrix(rows, cols);
      break;
    case Init::kXavier:
      param->value = Matrix::Xavier(rows, cols, rng);
      break;
    case Init::kSmallUniform:
      param->value = Matrix::RandomUniform(rows, cols, 0.08f, rng);
      break;
  }
  param->grad = Matrix(rows, cols);
  Parameter* raw = param.get();
  index_.emplace(std::move(key), params_.size());
  params_.push_back(std::move(param));
  return raw;
}

Parameter* ParameterStore::Find(std::string_view name) {
  auto it = index_.find(std::string(name));
  return it == index_.end() ? nullptr : params_[it->second].get();
}

const Parameter* ParameterStore::Find(std::string_view name) const {
  auto it = index_.find(std::string(name));
  return it == index_.end() ? nullptr : params_[it->second].get();
}

size_t ParameterStore::NumWeights() const {
  size_t total = 0;
  for (const auto& p : params_) total += p->value.size();
  return total;
}

void ParameterStore::ZeroGrads() {
  for (auto& p : params_) p->grad.SetZero();
}

double ParameterStore::GradNorm() const {
  double total = 0.0;
  for (const auto& p : params_) total += p->grad.SquaredNorm();
  return std::sqrt(total);
}

void ParameterStore::ClipGradients(double max_norm) {
  NCL_DCHECK(max_norm > 0.0);
  double norm = GradNorm();
  if (norm > max_norm) {
    float scale = static_cast<float>(max_norm / norm);
    for (auto& p : params_) p->grad.Scale(scale);
  }
}

Status ParameterStore::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");

  auto write_u32 = [&out](uint32_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto write_u64 = [&out](uint64_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };

  write_u32(kMagic);
  write_u32(kVersion);
  write_u64(params_.size());
  for (const auto& p : params_) {
    write_u64(p->name.size());
    out.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    write_u64(p->value.rows());
    write_u64(p->value.cols());
    out.write(reinterpret_cast<const char*>(p->value.data()),
              static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }
  return out.good() ? Status::OK() : Status::IOError("write failed for " + path);
}

Status ParameterStore::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::error_code ec;
  const uint64_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec) return Status::IOError("cannot size " + path + ": " + ec.message());
  // Bytes left after the read position (0 once a read has failed): counts
  // and lengths beyond it are forged or truncated and must not allocate.
  auto bytes_left = [&in, file_bytes]() -> uint64_t {
    const std::streamoff pos = in.tellg();
    return pos < 0 ? 0 : file_bytes - static_cast<uint64_t>(pos);
  };

  auto read_u32 = [&in]() {
    uint32_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  auto read_u64 = [&in]() {
    uint64_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };

  if (read_u32() != kMagic) return Status::IOError("bad magic in " + path);
  if (read_u32() != kVersion) return Status::IOError("bad version in " + path);
  // Each record holds at least a name length, rows and cols (3 x u64).
  uint64_t count = read_u64();
  if (!in || count > bytes_left() / (3 * sizeof(uint64_t))) {
    return Status::IOError("truncated checkpoint " + path);
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t name_len = read_u64();
    if (!in || name_len > bytes_left()) {
      return Status::IOError("truncated checkpoint " + path);
    }
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    uint64_t rows = read_u64();
    uint64_t cols = read_u64();
    Parameter* param = Find(name);
    if (param == nullptr) {
      return Status::NotFound("checkpoint parameter '" + name +
                              "' missing in this model");
    }
    if (param->value.rows() != rows || param->value.cols() != cols) {
      return Status::InvalidArgument("shape mismatch for parameter '" + name + "'");
    }
    in.read(reinterpret_cast<char*>(param->value.data()),
            static_cast<std::streamsize>(rows * cols * sizeof(float)));
    if (!in) return Status::IOError("truncated checkpoint " + path);
    const float* values = param->value.data();
    if (!std::all_of(values, values + param->value.size(),
                     [](float v) { return std::isfinite(v); })) {
      return Status::IOError("non-finite value in parameter '" + name +
                             "' of checkpoint " + path);
    }
  }
  return Status::OK();
}

Status ParameterStore::CopyValuesFrom(const ParameterStore& other) {
  if (other.size() != size()) {
    return Status::InvalidArgument("parameter count mismatch in CopyValuesFrom");
  }
  for (const auto& src : other.params_) {
    Parameter* dst = Find(src->name);
    if (dst == nullptr) {
      return Status::NotFound("parameter '" + src->name + "' missing in destination");
    }
    if (!dst->value.SameShape(src->value)) {
      return Status::InvalidArgument("shape mismatch for parameter '" + src->name +
                                     "'");
    }
    dst->value = src->value;
  }
  return Status::OK();
}

}  // namespace ncl::nn
