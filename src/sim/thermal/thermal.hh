/**
 * @file
 * Steady-state thermal model of the 2-die stack (paper section 4.3's
 * HotSpot study): a 3-D resistance grid over both dies.  The heat sink
 * sits on the top (LLC) die; the bottom (core) die conducts up through
 * the face-to-face bond.
 *
 * The grid is linear and its conductances depend only on the geometry
 * (every ThermalParams field but the ambient, which shifts the answer).
 * Each thread factors the conductance matrix by banded Cholesky on its
 * first solve for a geometry, so a solve is one forward and one back
 * substitution, exact to rounding.  The study's two scalar inputs
 * superpose two unit fields solved once with that factor:
 * T = ambient + core_die_w * U_core + l3_bank_w * U_bank, which costs
 * one pass over the cells per query.
 */

#ifndef ARCHSIM_THERMAL_THERMAL_HH
#define ARCHSIM_THERMAL_THERMAL_HH

#include <vector>

namespace archsim {

/** Stack geometry and material parameters. */
struct ThermalParams {
    int grid = 16;            ///< cells per die edge
    double dieEdge = 7.1e-3;  ///< die edge length (m)
    double dieThickness = 100e-6;  ///< thinned die (m)
    double bondThickness = 20e-6;  ///< face-to-face bond layer (m)
    double kSilicon = 120.0;  ///< W/(m K)
    double kBond = 1.5;       ///< W/(m K), underfill/bond
    double rSinkPerArea = 2.2e-5; ///< K m^2/W sink + copper spreader
    double ambient = 318.0;   ///< K (45 C case)
};

/** Result of a thermal solve. */
struct ThermalResult {
    double maxTemp = 0.0;     ///< K
    double maxTempTopDie = 0.0;
    double maxTempBottomDie = 0.0;
};

/**
 * The temperature (K) of every cell: the bottom die's grid x grid map,
 * then the top die's, each in the power maps' order.  Throws
 * std::invalid_argument on a power-map size mismatch or a non-positive
 * geometry.
 */
std::vector<double> stackTemperatures(const ThermalParams &p,
                                      const std::vector<double> &bottom_power,
                                      const std::vector<double> &top_power);

/**
 * Solve the stack: @p bottom_power and @p top_power are grid x grid
 * per-cell power maps (W) of the core die and the LLC die.
 */
ThermalResult solveStack(const ThermalParams &p,
                         const std::vector<double> &bottom_power,
                         const std::vector<double> &top_power);

/**
 * Build a power map with 8 equal tiles (2 rows x 4 columns) carrying
 * the given per-tile powers, matching the 8-bank / 8-core floorplan.
 */
std::vector<double> tileMap(int grid, const std::vector<double> &tiles);

/**
 * Solve the study's 2-die stack for the standard floorplan: the core
 * die dissipates @p core_die_w spread over 8 equal tiles, the LLC die
 * @p l3_bank_w per bank over its 8 tiles (0 for the no-L3 system).
 */
ThermalResult solveStudyStack(const ThermalParams &p, double core_die_w,
                              double l3_bank_w);

} // namespace archsim

#endif // ARCHSIM_THERMAL_THERMAL_HH
