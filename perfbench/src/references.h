// Pinned reference outputs of every workload item, and the tolerances the
// benchmark checks them with.
//
// Tolerances are tied to the solver's own tolerances, not to bitwise
// equality, so a change that moves arithmetic at reltol level (summation
// order, a different assembly path) still passes while a real change in
// the answer does not.
#pragma once

#include "nemsim/spice/newton.h"
#include "nemsim/spice/transient.h"

namespace perfbench {

/// Quantities read off a transient waveform (the column's sense latency): five times the LTE target, i.e. 1 %.
inline const double kTransientTol =
    5.0 * nemsim::spice::TransientOptions{}.lte_reltol;
/// Quantities of converged operating points (DC transfer curves and the
/// SNM read off them): 1e4 times the Newton reltol, i.e. 0.1 %.
inline const double kDcTol = 1e4 * nemsim::spice::NewtonOptions{}.reltol;

/// Read latency (s) of the 16-cell hybrid column (20 fF bitlines, 0.1 V
/// sense margin) -- the same for every active row and stored value.
inline constexpr double kColumnReadLatency = 3.843436804e-11;

/// Read SNM (V) of the nominal hybrid 6T cell, 121-point butterfly.
inline constexpr double kNominalSnm = 0.1042598218;

/// Population statistics of the hybrid 6T read SNM at 6 % sigma_Vth/mu_Vth
/// (121-point butterfly), estimated from 2048 trials on seeds the
/// benchmark never uses.  A run's sample mean and sigma must sit within
/// five standard errors of these (plus the DC tolerance).
struct SnmRef {
  double mean_v;
  double sigma_v;
};
/// Pooled over seeds 900001-900004, 512 trials each.
inline constexpr SnmRef kSnmRef{0.09961893446, 0.005918420467};

}  // namespace perfbench
