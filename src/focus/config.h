/**
 * @file
 * Configuration of the Focus unit (SEC + SIC).
 *
 * Defaults reproduce the paper's Tbl. I hyper-parameters: 2x2x2
 * blocks, vector length 32, similarity threshold 0.9, m tile 1024.
 */

#ifndef FOCUS_FOCUS_CONFIG_H
#define FOCUS_FOCUS_CONFIG_H

#include <cstdint>

namespace focus
{

/** Similarity Concentrator (SIC) configuration. */
struct SicConfig
{
    /** Cosine similarity threshold for a match. */
    float threshold = 0.9f;

    /** Vector (channel-slice) length for similarity granularity. */
    int vector_size = 32;

    /** Spatiotemporal block extents (frames, height, width). */
    int block_f = 2;
    int block_h = 2;
    int block_w = 2;

    /** GEMM m tile size: comparisons never cross a tile boundary. */
    int64_t m_tile = 1024;

    /**
     * Token-wise ablation (Fig. 2(c) "Ours token-wise"): match whole
     * token rows instead of vector slices.
     */
    bool token_wise = false;
};

/** How SEC selects the retained tokens at a pruning layer. */
enum class SecSelect
{
    TopK,      ///< fixed per-layer retention ratios (paper Tbl. I)
    TopP,      ///< cumulative-importance mass (Sec. VII-D extension)
    Threshold, ///< post-softmax attention threshold (ditto)
};

/** Semantic Concentrator (SEC) configuration. */
struct SecConfig
{
    /** Selection rule at each scheduled pruning layer. */
    SecSelect select = SecSelect::TopK;

    /** Cumulative importance mass for SecSelect::TopP. */
    double top_p = 0.92;

    /** Fraction of max importance for SecSelect::Threshold. */
    double threshold = 0.05;
};

/** Complete Focus unit configuration. */
struct FocusConfig
{
    bool sec_enable = true;
    bool sic_enable = true;
    SecConfig sec;
    SicConfig sic;
};

} // namespace focus

#endif // FOCUS_FOCUS_CONFIG_H
