#include "tensor/tensor.h"

#include <cinttypes>
#include <numeric>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace focus
{

Tensor::Tensor() : stride0_(0), stride1_(0) {}

Tensor::Tensor(int64_t d0)
    : shape_{d0}, data_(static_cast<size_t>(d0), 0.0f)
{
    initStrides();
}

Tensor::Tensor(int64_t d0, int64_t d1)
    : shape_{d0, d1}, data_(static_cast<size_t>(d0 * d1), 0.0f)
{
    initStrides();
}

Tensor::Tensor(int64_t d0, int64_t d1, int64_t d2)
    : shape_{d0, d1, d2}, data_(static_cast<size_t>(d0 * d1 * d2), 0.0f)
{
    initStrides();
}

void
Tensor::initStrides()
{
    if (shape_.size() == 1) {
        stride0_ = 1;
        stride1_ = 0;
    } else if (shape_.size() == 2) {
        stride0_ = shape_[1];
        stride1_ = 1;
    } else if (shape_.size() == 3) {
        stride0_ = shape_[1] * shape_[2];
        stride1_ = shape_[2];
    }
}

int64_t
Tensor::dim(int i) const
{
    if (i < 0 || i >= rank()) {
        panic("Tensor::dim: index %d out of rank %d", i, rank());
    }
    return shape_[static_cast<size_t>(i)];
}

float &
Tensor::operator()(int64_t i)
{
    return data_[static_cast<size_t>(i)];
}

float
Tensor::operator()(int64_t i) const
{
    return data_[static_cast<size_t>(i)];
}

float &
Tensor::operator()(int64_t i, int64_t j)
{
    return data_[static_cast<size_t>(i * stride0_ + j)];
}

float
Tensor::operator()(int64_t i, int64_t j) const
{
    return data_[static_cast<size_t>(i * stride0_ + j)];
}

float &
Tensor::operator()(int64_t i, int64_t j, int64_t k)
{
    return data_[static_cast<size_t>(i * stride0_ + j * stride1_ + k)];
}

float
Tensor::operator()(int64_t i, int64_t j, int64_t k) const
{
    return data_[static_cast<size_t>(i * stride0_ + j * stride1_ + k)];
}

float *
Tensor::row(int64_t i)
{
    return data_.data() + i * stride0_;
}

const float *
Tensor::row(int64_t i) const
{
    return data_.data() + i * stride0_;
}

void
Tensor::fill(float v)
{
    std::fill(data_.begin(), data_.end(), v);
}

void
Tensor::roundToFp16()
{
    kernels::roundFp16F32(data_.data(), numel());
}

Tensor
Tensor::reshaped(const std::vector<int64_t> &new_shape) const
{
    int64_t n = 1;
    for (int64_t d : new_shape) {
        n *= d;
    }
    if (n != numel()) {
        panic("Tensor::reshaped: element count mismatch (%" PRId64
              " vs %" PRId64 ")",
              n, numel());
    }
    Tensor out;
    out.shape_ = new_shape;
    out.data_ = data_;
    out.initStrides();
    return out;
}

void
Tensor::resize(int64_t rows, int64_t cols)
{
    shape_ = {rows, cols};
    data_.resize(static_cast<size_t>(rows * cols));
    initStrides();
}

Tensor
Tensor::sliceRows(int64_t r0, int64_t r1) const
{
    if (rank() != 2 || r0 < 0 || r1 > rows() || r0 > r1) {
        panic("Tensor::sliceRows: bad slice [%" PRId64 ", %" PRId64
              ") of %" PRId64 " rows",
              r0, r1, rank() == 2 ? rows() : int64_t{-1});
    }
    Tensor out(r1 - r0, cols());
    std::copy(data_.begin() + r0 * stride0_,
              data_.begin() + r1 * stride0_, out.data_.begin());
    return out;
}

bool
Tensor::sameShape(const Tensor &other) const
{
    return shape_ == other.shape_;
}

} // namespace focus
