#!/usr/bin/env python3
"""Dual sections, the operator norm in both directions, and the bidual diagram.

A covector field is a section of the dual bundle; it acts on sections by
integrating the pointwise pairing.  Its operator norm over the unit ball of
the p-integrated sections equals the q-integral of the fiberwise dual norms
(1/p + 1/q = 1).  We compute both routes and exhibit a maximizing section
that attains the value on the unit sphere.  Since the dual of the dual
bundle is the bundle itself, the same call measures a section acting on
covector fields.  The tour ends with the canonical-embedding residuals.
"""

import numpy as np

from bundlelab.duality import (
    check_reflexivity_diagram,
    holder_maximizer,
    integrated_pairing,
    operator_norm,
)
from bundlelab.generators import InstanceRecipe, instance_rng, random_bundle, random_section
from bundlelab.measure import conjugate_exponent, lp_norm
from bundlelab.bundles import pointwise_norm, section_lp_norm

RECIPE = InstanceRecipe(seed=17, atom_range=(3, 3), dim_range=(2, 3))


def main() -> int:
    bundle = random_bundle(RECIPE, 0)
    rng = instance_rng(RECIPE.seed, 0, stream=4)
    omega = random_section(bundle.dual(), rng)
    v = random_section(bundle, rng)
    print(f"bundle: {bundle.space.atom_count} atoms, fiber dims {bundle.dimensions}")

    for p in (1.5, 2, 3):
        q = conjugate_exponent(p)
        value = operator_norm(omega, p)
        closed = lp_norm(pointwise_norm(omega), q)
        vstar = holder_maximizer(omega, p)
        attained = integrated_pairing(omega, vstar)
        print(f"p={p:<4} q={float(q):<4} operator norm {value:.9f}  "
              f"q-integral route {closed:.9f}  "
              f"attained {attained:.9f} at a section of norm "
              f"{section_lp_norm(vstar, p):.9f}")
        print(f"{'':15}section on covector fields: operator norm "
              f"{operator_norm(v, q):.9f}  p-integral route {section_lp_norm(v, p):.9f}")

    rep = check_reflexivity_diagram(bundle, 2, samples=50, seed=3)
    print(f"\nbidual diagram over {rep.samples} sampled pairs: "
          f"pairing residual {rep.max_pairing_residual:.2e}, "
          f"bidual norm gap {rep.max_bidual_norm_gap:.2e}, passed={rep.passed}")

    constant = random_bundle(InstanceRecipe(seed=17, atom_range=(3, 3),
                                            dim_range=(2, 3),
                                            constant_fraction=1.0), 0)
    rep2 = check_reflexivity_diagram(constant, 2, samples=50, seed=3)
    print(f"constant bundle: chain through the shared fiber checked="
          f"{rep2.constant_chain_checked}, "
          f"chain residual {rep2.max_constant_chain_residual:.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
