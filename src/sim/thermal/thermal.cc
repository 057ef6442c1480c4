/**
 * @file
 * Thermal grid solver implementation.
 */

#include "sim/thermal/thermal.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

namespace archsim {

namespace {

/**
 * The stack's conductance matrix G (W/K), factored G = L L^T.
 * Unknown (y * grid + x) * 2 + layer is the rise over ambient of cell
 * (x, y) on the bottom (0) or top (1) die.  That order keeps every
 * coupling within 2 * grid of the diagonal, so L is a band: row i
 * holds L(i, i - d) for d = 0 .. 2 * grid.
 */
class StackFactor
{
  public:
    explicit StackFactor(const ThermalParams &p);

    /** Whether @p p has this factor's geometry (the ambient may differ). */
    bool fits(const ThermalParams &p) const;

    std::size_t cells() const { return unknowns_ / 2; }

    /** Overwrite per-unknown power @p x (W) with the rise it causes (K). */
    void solve(std::vector<double> &x) const;

    /** Rise per watt of the study's core die and of each of its LLC
     * banks; empty until the first study query. */
    std::vector<double> unitCore, unitBank;

  private:
    double &
    at(std::size_t i, std::size_t d)
    {
        return band_[i * (bw_ + 1) + d];
    }
    double
    at(std::size_t i, std::size_t d) const
    {
        return band_[i * (bw_ + 1) + d];
    }
    std::size_t first(std::size_t i) const { return i > bw_ ? i - bw_ : 0; }

    ThermalParams geometry_;
    std::size_t unknowns_;
    std::size_t bw_; ///< half-bandwidth
    std::vector<double> band_;
};

StackFactor::StackFactor(const ThermalParams &p) : geometry_(p)
{
    const auto positive = [](double v) { return v > 0 && std::isfinite(v); };
    if (p.grid < 1 || !positive(p.dieEdge) || !positive(p.dieThickness) ||
        !positive(p.bondThickness) || !positive(p.kSilicon) ||
        !positive(p.kBond) || !positive(p.rSinkPerArea))
        throw std::invalid_argument("thermal geometry must be positive");

    const auto n = std::size_t(p.grid);
    unknowns_ = 2 * n * n;
    bw_ = 2 * n;
    band_.assign(unknowns_ * (bw_ + 1), 0.0);

    const double cell_edge = p.dieEdge / p.grid;
    const double cell_area = cell_edge * cell_edge;
    // Conductances (W/K): silicon between lateral neighbours (k times
    // the cross-section over the length; the cell edge cancels), the
    // bond between the dies, and the sink above the top die.
    const double g_lateral = p.kSilicon * p.dieThickness;
    const double g_bond = p.kBond * cell_area / p.bondThickness;
    const double g_sink = cell_area / p.rSinkPerArea;

    // Lower band of G: a coupling of unknowns i and i - d adds to both
    // diagonals and puts its negated conductance off the diagonal.
    const auto couple = [&](std::size_t i, std::size_t d, double g) {
        at(i, 0) += g;
        at(i - d, 0) += g;
        at(i, d) = -g;
    };
    for (std::size_t y = 0; y < n; ++y) {
        for (std::size_t x = 0; x < n; ++x) {
            const std::size_t i = (y * n + x) * 2;
            couple(i + 1, 1, g_bond);
            at(i + 1, 0) += g_sink;
            for (std::size_t layer = 0; layer < 2; ++layer) {
                if (x > 0)
                    couple(i + layer, 2, g_lateral);
                if (y > 0)
                    couple(i + layer, bw_, g_lateral);
            }
        }
    }

    // Cholesky in place; G is symmetric and, with the sink, positive
    // definite, so every pivot is positive.
    for (std::size_t i = 0; i < unknowns_; ++i) {
        for (std::size_t j = first(i); j <= i; ++j) {
            double s = at(i, i - j);
            for (std::size_t k = first(i); k < j; ++k)
                s -= at(i, i - k) * at(j, j - k);
            at(i, i - j) = i == j ? std::sqrt(s) : s / at(j, 0);
        }
    }
}

bool
StackFactor::fits(const ThermalParams &p) const
{
    const ThermalParams &g = geometry_;
    return p.grid == g.grid && p.dieEdge == g.dieEdge &&
           p.dieThickness == g.dieThickness &&
           p.bondThickness == g.bondThickness &&
           p.kSilicon == g.kSilicon && p.kBond == g.kBond &&
           p.rSinkPerArea == g.rSinkPerArea;
}

void
StackFactor::solve(std::vector<double> &x) const
{
    // Forward substitution, L z = x.
    for (std::size_t i = 0; i < unknowns_; ++i) {
        double s = x[i];
        for (std::size_t k = first(i); k < i; ++k)
            s -= at(i, i - k) * x[k];
        x[i] = s / at(i, 0);
    }
    // Back substitution, L^T t = z, a row of L at a time.
    for (std::size_t i = unknowns_; i-- > 0;) {
        x[i] /= at(i, 0);
        for (std::size_t k = first(i); k < i; ++k)
            x[k] -= at(i, i - k) * x[i];
    }
}

/** This thread's factor for @p p's geometry, built on first use. */
StackFactor &
factorFor(const ThermalParams &p)
{
    thread_local std::optional<StackFactor> memo;
    if (!memo || !memo->fits(p))
        memo.emplace(p);
    return *memo;
}

/** Per-unknown rise over ambient (K) under the two power maps (W). */
std::vector<double>
rise(const StackFactor &f, const std::vector<double> &bottom_power,
     const std::vector<double> &top_power)
{
    const std::size_t cells = f.cells();
    if (bottom_power.size() != cells || top_power.size() != cells)
        throw std::invalid_argument("power map size mismatch");
    std::vector<double> x(2 * cells);
    for (std::size_t c = 0; c < cells; ++c) {
        x[2 * c] = bottom_power[c];
        x[2 * c + 1] = top_power[c];
    }
    f.solve(x);
    return x;
}

/** Per-die and stack maxima of temp(cell, layer) over @p cells cells. */
template <class Temp>
ThermalResult
peaks(std::size_t cells, Temp temp)
{
    ThermalResult r;
    for (std::size_t c = 0; c < cells; ++c) {
        r.maxTempBottomDie = std::max(r.maxTempBottomDie, temp(c, 0));
        r.maxTempTopDie = std::max(r.maxTempTopDie, temp(c, 1));
    }
    r.maxTemp = std::max(r.maxTempBottomDie, r.maxTempTopDie);
    return r;
}

} // namespace

std::vector<double>
tileMap(int grid, const std::vector<double> &tiles)
{
    if (tiles.size() != 8)
        throw std::invalid_argument("expected 8 tile powers");
    std::vector<double> map(std::size_t(grid) * grid, 0.0);
    const int tile_rows = 2;
    const int tile_cols = 4;
    const int cells_per_tile =
        (grid / tile_rows) * (grid / tile_cols);
    for (int y = 0; y < grid; ++y) {
        for (int x = 0; x < grid; ++x) {
            const int ty = y / (grid / tile_rows);
            const int tx = x / (grid / tile_cols);
            const double p = tiles[std::size_t(ty) * tile_cols + tx];
            map[std::size_t(y) * grid + x] = p / cells_per_tile;
        }
    }
    return map;
}

ThermalResult
solveStudyStack(const ThermalParams &p, double core_die_w,
                double l3_bank_w)
{
    StackFactor &f = factorFor(p);
    if (f.unitCore.empty()) {
        const std::vector<double> zero(f.cells(), 0.0);
        f.unitCore = rise(
            f, tileMap(p.grid, std::vector<double>(8, 1.0 / 8.0)), zero);
        f.unitBank =
            rise(f, zero, tileMap(p.grid, std::vector<double>(8, 1.0)));
    }
    return peaks(f.cells(), [&](std::size_t c, int layer) {
        const std::size_t i = 2 * c + layer;
        return p.ambient +
               (core_die_w * f.unitCore[i] + l3_bank_w * f.unitBank[i]);
    });
}

std::vector<double>
stackTemperatures(const ThermalParams &p,
                  const std::vector<double> &bottom_power,
                  const std::vector<double> &top_power)
{
    const std::vector<double> x =
        rise(factorFor(p), bottom_power, top_power);
    const std::size_t cells = x.size() / 2;
    std::vector<double> t(x.size());
    for (std::size_t c = 0; c < cells; ++c) {
        t[c] = p.ambient + x[2 * c];
        t[cells + c] = p.ambient + x[2 * c + 1];
    }
    return t;
}

ThermalResult
solveStack(const ThermalParams &p, const std::vector<double> &bottom_power,
           const std::vector<double> &top_power)
{
    const std::vector<double> t =
        stackTemperatures(p, bottom_power, top_power);
    const std::size_t cells = t.size() / 2;
    return peaks(cells, [&](std::size_t c, int layer) {
        return t[layer * cells + c];
    });
}

} // namespace archsim
