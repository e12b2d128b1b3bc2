"""Check the Fokker–Planck default step against dense operator spectra.

Run by hand from the repository root; pytest does not collect this file:

    PYTHONPATH=src python tests/fp_stability_sweep.py --systems 48 --seed 1

Each trial draws a quadratic Hamiltonian in one of the three regimes
(elliptic, hyperbolic, parabolic) with a linear drive, one or two
channels whose diffusion is either diagonal or carries D_pq != 0, and a
grid of random centre and half-extents with 9 to 35 nodes per axis (so
h_p != h_q). It assembles the transport operator as a dense matrix, one
unit vector at a time, and prints max |P(dt lambda)| - 1 over its
eigenvalues at the default step ``fokker_planck_max_dt``, where
P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 is RK4's stability polynomial. A
positive value marks a mode that grows over one step. A channel with
gain (alpha < 0) can give the operator itself a growing mode, which
grows by e^{dt Re lambda} per step; the second figure, the largest
|P(dt lambda)| / max(1, e^{dt Re lambda}) - 1, is what the step adds to
that, and RK4 is stable at the step when it is at most roundoff. The
last two lines give the worst trial by each figure.
"""
from __future__ import annotations

import argparse
import math

import numpy as np

from conftest import dense_transport, random_hamiltonian, rk4_factor
from lindquad import (HamiltonianForm, LindbladChannel, OpenSystem,
                      centered_grid, fokker_planck_max_dt)

_REGIMES = ("elliptic", "hyperbolic", "parabolic")


def _channels(rng: np.random.Generator, cross: bool) -> tuple:
    """One or two channels. Without ``cross``, each has l_re along q and
    l_im along p, which keeps K, and so D, diagonal."""
    out = []
    for _ in range(rng.integers(1, 3)):
        if cross:
            l_re, l_im = rng.uniform(-0.6, 0.6, 2), rng.uniform(-0.6, 0.6, 2)
        else:
            l_re = np.array([0.0, rng.uniform(-0.6, 0.6)])
            l_im = np.array([rng.uniform(-0.6, 0.6), 0.0])
        out.append(LindbladChannel(l_re=l_re, l_im=l_im))
    return tuple(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--systems", type=int, default=48,
                        help="number of random trials (default 48)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    worst = [(-math.inf, ""), (-math.inf, "")]
    for trial in range(args.systems):
        regime = _REGIMES[trial % 3]
        cross = bool(trial // 3 % 2)
        ham = HamiltonianForm(matrix=random_hamiltonian(rng, regime).matrix,
                              linear=rng.uniform(-0.3, 0.3, 2))
        system = OpenSystem(hamiltonian=ham, channels=_channels(rng, cross))
        shape = tuple(int(n) for n in rng.integers(9, 36, 2))
        grid = centered_grid(rng.uniform(-1.0, 1.0, 2),
                             rng.uniform(2.0, 8.0, 2), shape)
        dt = fokker_planck_max_dt(system, grid)
        z = dt * np.linalg.eigvals(dense_transport(system, grid))
        growth = np.abs(rk4_factor(z))
        excess = (float(np.max(growth)) - 1.0,
                  float(np.max(growth / np.maximum(1.0, np.exp(z.real)))) - 1.0)
        label = (f"{trial:3d} {regime:10s} {'cross' if cross else 'diag ':5s} "
                 f"grid {shape[0]:2d}x{shape[1]:2d} alpha {system.alpha:+.3f} "
                 f"dt {dt:.4g}")
        print(f"{label}  max|P|-1 = {excess[0]:+.3e}  beyond exp {excess[1]:+.3e}",
              flush=True)
        worst = [max(w, (e, label)) for w, e in zip(worst, excess)]
    for what, (value, label) in zip(("max|P|-1", "beyond exp"), worst):
        print(f"worst {what} = {value:+.3e} at trial {label}")


if __name__ == "__main__":
    main()
