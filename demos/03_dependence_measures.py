"""Dependence between the two lifetimes.

The joint model induces positive dependence because both partners draw their
latent start state together. This script quantifies it for four reference
couples: Kendall's tau and Spearman's rho in closed form, the conditional
survival ratios psi1 and psi2, and the cross-ratio (the relative jump in one
partner's hazard at the moment the other dies).

Run from the repository root:

    python3 demos/03_dependence_measures.py
"""

from pathlib import Path

import numpy as np

from miph import (
    cross_ratio,
    kendall_tau,
    load_model,
    psi1,
    psi2,
    spearman_rho,
    standard_design,
)

MODEL_PATH = Path(__file__).parent / "models" / "spousal_reference.json"

COUPLES = ((63, 63), (68, 63), (63, 68), (73, 63))


def main():
    model = load_model(MODEL_PATH)

    print("rank correlations by couple (closed form, no simulation):")
    print("  ages       tau      rho")
    for ages in COUPLES:
        pi = _pi(model, ages)
        t = kendall_tau(model, pi)
        r = spearman_rho(model, pi)
        print(f"  {ages}   {t:.4f}   {r:.4f}")

    pi = _pi(model, COUPLES[0])

    # psi1 compares joint survival with what independence would predict;
    # psi2 compares one margin's survival with and without the information
    # that the partner reached the same age.
    # Each curve is one call on an array of ages.
    ys = np.array([0.10, 0.20, 0.30])
    print("\n  years   psi1(y,y)   psi2(margin 0 | partner alive)")
    for y, p1, p2 in zip(ys, psi1(model, pi, ys, ys), psi2(model, pi, 0, ys)):
        print(f"  {y*100:4.0f}    {p1:8.4f}    {p2:8.4f}")

    # The cross-ratio along the diagonal: values above 1 mean the surviving
    # partner's hazard rises when the other dies ("broken-heart" effect).
    # The curve is genuinely bumpy: the ten states exit in sharply separated
    # age bands, so the ratio spikes wherever one band's wave begins.
    u_years = np.arange(1, 30)
    values = cross_ratio(model, pi, u_years / 100.0)
    print("\n  years   cross-ratio CR(u, u)")
    for u, cr in zip(u_years, values):
        if u in (1, 5, 10, 15, 20, 25, 29):
            print(f"  {u:4d}    {cr:.6f}")
    print(f"\nCR(u, u) > 1 for every u in 1..29 years: {bool(np.all(values > 1))}")


def _pi(model, ages):
    a1 = np.array([ages[0] / 100.0])
    a2 = np.array([ages[1] / 100.0])
    return model.initial_vectors(standard_design(a1, a2))[0]


if __name__ == "__main__":
    main()
