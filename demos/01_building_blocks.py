"""Single-lifetime building blocks.

A lifetime is modelled as the absorption time of a Markov jump process on a
few transient states, observed through a time transform that bends the
operational clock into calendar age. This script builds one such margin as
a one-margin joint model, checks its density integrates to one, and compares
simulated draws with the exact survival function.

Run from the repository root:

    python3 demos/01_building_blocks.py
"""

import numpy as np
from scipy import integrate

from miph import (
    GompertzTransform,
    Margin,
    MIPHModel,
    SubIntensity,
    joint_density,
    marginal_survival,
    sample_absorption_times,
)


def main():
    rng = np.random.default_rng(7)

    # A three-state onward chain: each state feeds the next, every state can
    # also absorb directly. Rows of [matrix | exit] sum to zero.
    sub = SubIntensity.from_rates(
        transition_rates=np.array([
            [0.0, 1.2, 0.0],
            [0.0, 0.0, 0.8],
            [0.0, 0.0, 0.0],
        ]),
        exit_rates=np.array([0.05, 0.10, 0.90]),
    )
    pi = np.array([0.6, 0.3, 0.1])
    print("sub-intensity matrix:")
    print(sub.matrix)
    print("exit rates:", sub.exit_rates)

    # The transform: age y corresponds to operational time (e^(b y) - 1) / b.
    transform = GompertzTransform(4.0)
    print()
    for y in (0.2, 0.5, 0.8):
        x = transform.inverse(y)
        print(f"age {y:.1f} -> operational time {x:8.3f} "
              f"-> back to age {transform.forward(x):.10f}")

    # Chain plus transform is one margin; a model of that margin alone is
    # the single lifetime, whose joint density is its age-scale density.
    model = MIPHModel((Margin(sub, transform),))
    total, _ = integrate.quad(lambda y: joint_density(model, pi, [y]), 0, 3.0)
    print(f"\nage-scale density integrates to {total:.12f}")

    # Simulate by running the jump chain and read off survival frequencies.
    starts = rng.choice(3, size=200_000, p=pi)
    x_draws = sample_absorption_times(sub, starts, rng)
    y_draws = transform.forward(x_draws)
    print("\n  age   exact S(y)   simulated")
    for y in (0.1, 0.3, 0.5, 0.7, 0.9):
        exact = marginal_survival(model, pi, 0, y)
        seen = float(np.mean(y_draws > y))
        print(f"  {y:.1f}   {exact:.6f}     {seen:.6f}")


if __name__ == "__main__":
    main()
