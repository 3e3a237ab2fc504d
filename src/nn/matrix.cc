#include "nn/matrix.h"

#include <cmath>

#include "nn/gemm.h"

namespace ncl::nn {

Matrix Matrix::FromValues(size_t rows, size_t cols, std::vector<float> values) {
  NCL_CHECK(values.size() == rows * cols) << "FromValues size mismatch";
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(values);
  return m;
}

Matrix Matrix::RandomUniform(size_t rows, size_t cols, float scale, Rng& rng) {
  Matrix m(rows, cols);
  for (float& v : m.data_) v = rng.UniformFloat(-scale, scale);
  return m;
}

Matrix Matrix::Xavier(size_t rows, size_t cols, Rng& rng) {
  float scale = std::sqrt(6.0f / static_cast<float>(rows + cols));
  return RandomUniform(rows, cols, scale, rng);
}

void Matrix::SetZero() { std::fill(data_.begin(), data_.end(), 0.0f); }

void Matrix::Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::AddInPlace(const Matrix& other) {
  NCL_DCHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::Axpy(float alpha, const Matrix& other) {
  NCL_DCHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Matrix::Scale(float alpha) {
  for (float& v : data_) v *= alpha;
}

double Matrix::SquaredNorm() const {
  double total = 0.0;
  for (float v : data_) total += static_cast<double>(v) * v;
  return total;
}

double Matrix::Norm() const { return std::sqrt(SquaredNorm()); }

double Matrix::Sum() const {
  double total = 0.0;
  for (float v : data_) total += v;
  return total;
}

// One GemmNT call chooses the kernel set once per product, not per row.
void Matrix::MatVecInto(const float* x, float* y) const {
  GemmNT(rows_, 1, cols_, data(), cols_, x, cols_, y, 1);
}

void Matrix::MatVecAccumInto(const float* x, float* y) const {
  GemmNTAccum(rows_, 1, cols_, data(), cols_, x, cols_, y, 1);
}

Matrix Matrix::MatMul(const Matrix& other) const {
  NCL_CHECK(cols_ == other.rows_)
      << "MatMul shape mismatch " << ShapeString() << " x " << other.ShapeString();
  Matrix out(rows_, other.cols_);
  if (other.cols_ == 1) {
    MatVecInto(other.data(), out.data());
    return out;
  }
  GemmNN(rows_, other.cols_, cols_, data(), cols_, other.data(), other.cols_,
         out.data(), out.cols());
  return out;
}

Matrix Matrix::TransposedMatMul(const Matrix& other) const {
  NCL_CHECK(rows_ == other.rows_) << "TransposedMatMul shape mismatch "
                                  << ShapeString() << " x " << other.ShapeString();
  Matrix out(cols_, other.cols_);
  GemmTN(cols_, other.cols_, rows_, data(), cols_, other.data(), other.cols_,
         out.data(), out.cols());
  return out;
}

Matrix Matrix::MatMulTransposed(const Matrix& other) const {
  NCL_CHECK(cols_ == other.cols_) << "MatMulTransposed shape mismatch "
                                  << ShapeString() << " x " << other.ShapeString();
  Matrix out(rows_, other.rows_);
  GemmNT(rows_, other.rows_, cols_, data(), cols_, other.data(), other.cols_,
         out.data(), out.cols());
  return out;
}

double Matrix::Dot(const Matrix& other) const {
  NCL_DCHECK(SameShape(other));
  double total = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    total += static_cast<double>(data_[i]) * other.data_[i];
  }
  return total;
}

std::string Matrix::ShapeString() const {
  return std::string("(")
      .append(std::to_string(rows_))
      .append(" x ")
      .append(std::to_string(cols_))
      .append(")");
}

}  // namespace ncl::nn
