/**
 * @file
 * Dense row-major tensor used by the functional model.
 *
 * Values are stored as float for speed; an explicit fp16 rounding pass
 * (`roundToFp16`) emulates binary16 storage where the architecture
 * holds FP16 data (activations, weights).  Shapes are limited to rank
 * <= 3, which covers everything in the pipeline (matrices and
 * frame-stacked activations).
 */

#ifndef FOCUS_TENSOR_TENSOR_H
#define FOCUS_TENSOR_TENSOR_H

#include <cstdint>
#include <vector>

namespace focus
{

/**
 * Row-major float tensor of rank 1..3.
 */
class Tensor
{
  public:
    Tensor();
    /** Rank-1. */
    explicit Tensor(int64_t d0);
    /** Rank-2. */
    Tensor(int64_t d0, int64_t d1);
    /** Rank-3. */
    Tensor(int64_t d0, int64_t d1, int64_t d2);

    int rank() const { return static_cast<int>(shape_.size()); }
    int64_t dim(int i) const;
    const std::vector<int64_t> &shape() const { return shape_; }
    int64_t numel() const { return static_cast<int64_t>(data_.size()); }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    float &operator()(int64_t i);
    float operator()(int64_t i) const;
    float &operator()(int64_t i, int64_t j);
    float operator()(int64_t i, int64_t j) const;
    float &operator()(int64_t i, int64_t j, int64_t k);
    float operator()(int64_t i, int64_t j, int64_t k) const;

    /** Pointer to the start of row @p i (rank-2 only). */
    float *row(int64_t i);
    const float *row(int64_t i) const;

    /** Number of columns of a rank-2 tensor. */
    int64_t rows() const { return dim(0); }
    int64_t cols() const { return dim(1); }

    void fill(float v);

    /**
     * Round every element through binary16 (storage emulation), bit
     * for bit as `fp16Round`: kernels::roundFp16F32 takes 8 lanes per
     * F16C step where the CPU has it and runs `fp16Round` elsewhere.
     */
    void roundToFp16();

    /** Reinterpret with a new shape of identical element count. */
    Tensor reshaped(const std::vector<int64_t> &new_shape) const;

    /**
     * Reshape to rank-2 @p rows x @p cols in place, keeping the
     * storage's capacity: kept elements hold their old values, new
     * ones are zero.
     */
    void resize(int64_t rows, int64_t cols);

    /** Rank-2 slice of rows [r0, r1). */
    Tensor sliceRows(int64_t r0, int64_t r1) const;

    bool sameShape(const Tensor &other) const;

  private:
    std::vector<int64_t> shape_;
    std::vector<float> data_;
    int64_t stride0_;
    int64_t stride1_;

    void initStrides();
};

} // namespace focus

#endif // FOCUS_TENSOR_TENSOR_H
